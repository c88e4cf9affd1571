"""Double-double arithmetic: ~31 significant decimal digits per value.

A value is an unevaluated sum ``hi + lo`` of two floats with
``|lo| <= ulp(hi)/2``, stored as a plain tuple ``(hi, lo)``.  The point
evaluation of sigma_k at a sampled point is a cancellation of terms as large
as ``|H|^k`` down to a value near 1, so its absolute error in plain double
precision can reach ~1e-8 for k = 4 on the standard sample box.  Carrying the
residual pipeline (the Hessian's constants, its closed-form eigenvalues, the
e_k recurrence) in double-double pushes that error below 1e-20.

exp is the QD library's (Hida, Li and Bailey, ARITH 2001; see exp), with no
division: against 50-digit decimals it is within 2^-104 relative on [-2, 2]
and within ~3 * 2^-104 on [-30, 30].

No FMA is assumed: products are split with Dekker's algorithm, which is exact
while operands and products stay below ``SPLIT_MAX`` = 2**996 (~6.7e299);
past that the split's ``_SPLITTER * a`` overflows.  Callers that could reach
it guard their inputs (see ``solution._check_radius``).

Each of add, sub, add_f, mul and mul_f runs as one Python frame: Knuth's
TwoSum, Dekker's TwoProd and the closing FastTwoSum are written out inside
it, because in CPython a function call costs as much as the float operations
it would wrap.  div and sqrt write out their closing FastTwoSum the same way.
The float operations are the textbook composition's, in its order, so every
result is the composition's bit for bit; tests/test_doubledouble.py keeps
the composition and pins this.  exp, rotate and ring() are built from the
public operations, looked up on the module, so a call counter installed here
sees every operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from types import SimpleNamespace

DD = tuple[float, float]

_SPLITTER = 134217729.0  # 2**27 + 1
# _SPLITTER * a overflows once |a| reaches 2**1024 / (2**27 + 1), just under 2**997
SPLIT_MAX = 2.0**996

# ln 2 to double-double precision (hi is the correctly rounded double)
_LN2: DD = (0.6931471805599453, 2.3190468138462996e-17)

ZERO: DD = (0.0, 0.0)
ONE: DD = (1.0, 0.0)


def from_float(a: float) -> DD:
    return (float(a), 0.0)


def from_product(a: float, b: float) -> DD:
    """The exact product of two floats as a double-double (Dekker's TwoProd)."""
    p = a * b
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def from_fraction(q: Fraction) -> DD:
    hi = float(q)
    lo = float(q - Fraction(hi))
    return (hi, lo)


def to_float(x: DD) -> float:
    return x[0] + x[1]


def neg(x: DD) -> DD:
    return (-x[0], -x[1])


# In add, sub, add_f, mul and mul_f below: s, e = TwoSum(xh, yh) is
#     s = xh + yh;  bb = s - xh;  e = (xh - (s - bb)) + (yh - bb)
# Dekker's split of a into ahi + alo is
#     c = _SPLITTER * a;  ahi = c - (c - a);  alo = a - ahi
# and the closing FastTwoSum(s, e), which needs |s| >= |e|, is
#     h = s + e;  return h, e - (h - s)


def add(x: DD, y: DD) -> DD:
    xh, xl = x
    yh, yl = y
    s = xh + yh
    bb = s - xh
    e = ((xh - (s - bb)) + (yh - bb)) + (xl + yl)
    h = s + e
    return h, e - (h - s)


def sub(x: DD, y: DD) -> DD:
    xh, xl = x
    yh, yl = y
    b = -yh  # TwoSum(xh, -yh), the textbook sub's float operations
    s = xh + b
    bb = s - xh
    e = ((xh - (s - bb)) + (b - bb)) + (xl - yl)
    h = s + e
    return h, e - (h - s)


def add_f(x: DD, f: float) -> DD:
    xh, xl = x
    s = xh + f
    bb = s - xh
    e = ((xh - (s - bb)) + (f - bb)) + xl
    h = s + e
    return h, e - (h - s)


def mul(x: DD, y: DD) -> DD:
    xh, xl = x
    yh, yl = y
    p = xh * yh
    c = _SPLITTER * xh
    ahi = c - (c - xh)
    alo = xh - ahi
    c = _SPLITTER * yh
    bhi = c - (c - yh)
    blo = yh - bhi
    e = (((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo) + (xh * yl + xl * yh)
    h = p + e
    return h, e - (h - p)


def mul_f(x: DD, f: float) -> DD:
    xh, xl = x
    p = xh * f
    c = _SPLITTER * xh
    ahi = c - (c - xh)
    alo = xh - ahi
    c = _SPLITTER * f
    bhi = c - (c - f)
    blo = f - bhi
    e = (((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo) + xl * f
    h = p + e
    return h, e - (h - p)


def mul_pow2(x: DD, f: float) -> DD:
    # exact when f is a power of two
    return (x[0] * f, x[1] * f)


def div(x: DD, y: DD) -> DD:
    yh = y[0]
    q1 = x[0] / yh
    r = sub(x, mul_f(y, q1))
    q2 = r[0] / yh
    r = sub(r, mul_f(y, q2))
    q3 = r[0] / yh
    s = q1 + q2
    e = (q2 - (s - q1)) + q3
    h = s + e
    return h, e - (h - s)


def sqrt(x: DD) -> DD:
    xh = x[0]
    if not xh > 0.0:
        if xh == 0.0:
            return ZERO
        if xh < 0.0:
            raise ValueError("square root of a negative double-double")
        raise ValueError(f"square root of a nan double-double {x!r}")
    s = math.sqrt(xh)
    r = sub(x, from_product(s, s))
    e = (r[0] + r[1]) / (2.0 * s)
    h = s + e
    return h, e - (h - s)


# 1/j! for the Taylor terms of exp past r^2/2, as double-doubles
_INV_FACTORIALS = tuple(from_fraction(Fraction(1, math.factorial(j))) for j in range(3, 14))
# exp squares its reduced sum nine times, multiplying a relative error by 2^9 = 512
_EXP_SQUARINGS = 9
# a Taylor term below this adds under 2^-104 (the double-double unit) after the squarings
_EXP_TAIL = 2.0**-104 / 2**_EXP_SQUARINGS
# log(DBL_MAX) rounded down: e^x is finite for every double x up to it
_EXP_MAX = 709.782712893384


def exp(x: DD) -> DD:
    """exp of a double-double, the QD library's algorithm.

    Hida, Li and Bailey, "Algorithms for quad-double precision floating point
    arithmetic" (ARITH 2001): reduce x = m ln2 + 512 r with |r| <= ln2/1024,
    sum s = e^r - 1 = r + r^2/2 + sum_j r^j/j! with tabulated 1/j!, square
    nine times by s <- 2s + s^2 (so 1 + s becomes e^(512 r)), then return
    (1 + s) 2^m.  Raises OverflowError where e^x exceeds the largest double
    and ValueError where either part of x is nan.
    """
    if math.isnan(x[0]) or math.isnan(x[1]):
        raise ValueError(f"exp of a nan double-double {x!r}")
    if x[0] > _EXP_MAX:
        raise OverflowError("double-double exp overflow")
    if x[0] < -746.0:
        return ZERO
    m = round(x[0] / _LN2[0])
    r = mul_pow2(sub(x, mul_f(_LN2, float(m))), 2.0**-_EXP_SQUARINGS)
    power = mul(r, r)
    s = add(r, mul_pow2(power, 0.5))
    for inv_factorial in _INV_FACTORIALS:
        power = mul(power, r)
        term = mul(power, inv_factorial)
        s = add(s, term)
        if abs(term[0]) <= _EXP_TAIL:
            break
    for _ in range(_EXP_SQUARINGS):
        s = add(mul_pow2(s, 2.0), mul(s, s))
    s = add_f(s, 1.0)
    try:
        # each part scaled on its own: 2^m alone overflows for m = 1024
        return math.ldexp(s[0], m), math.ldexp(s[1], m)
    except OverflowError:
        raise OverflowError("double-double exp overflow") from None


def rotate(c: DD, s: DD, x: DD, y: DD) -> tuple[DD, DD]:
    """The plane rotation (c x - s y, s x + c y) of one pair of entries."""
    return sub(mul(c, x), mul(s, y)), add(mul(s, x), mul(c, y))


def ring() -> SimpleNamespace:
    """The double-double ring of symfunc's cyclic Jacobi.

    On its audited samples the scan diagonalizes the double-double Hessian
    with the same cyclic Jacobi as cone-check and phase-check, carried in
    this arithmetic, to check the closed-form spectrum that it feeds to
    symfunc.elementary_symmetric with add and mul (at sample-box corners
    |sigma_k - 1| is below what plain doubles can resolve, see the module
    docstring).  The skip rule and the off-diagonal norm read only the
    leading float hi, which is the rounded value hi + lo; the ascending sort
    compares (hi, lo) pairs, which order as their values.  The
    operations are looked up on every call, never stored, so that a wrapper
    installed on this module (a call counter) sees the Jacobi's calls too.
    """
    return SimpleNamespace(
        name="double-double", add=add, sub=sub, mul=mul, div=div, sqrt=sqrt,
        rotate=rotate, lead=itemgetter(0), zero=ZERO, one=ONE,
    )
