"""Double-double arithmetic: ~31 significant decimal digits per value.

A value is an unevaluated sum ``hi + lo`` of two floats with
``|lo| <= ulp(hi)/2``, stored as a plain tuple ``(hi, lo)``.  The point
evaluation of sigma_k at a sampled point is a cancellation of terms as large
as ``|H|^k`` down to a value near 1, so its absolute error in plain double
precision can reach ~1e-8 for k = 4 on the standard sample box.  Carrying the
residual pipeline (the Hessian's constants, its closed-form eigenvalues and
sigma_1..sigma_k) in double-double pushes that error below 1e-20.

No FMA is assumed: products are split with Dekker's algorithm, which is exact
while operands and products stay below ``SPLIT_MAX`` = 2**996 (~6.7e299);
past that the split's ``SPLITTER * a`` overflows.  Callers that could reach
it guard their inputs (see ``solution._check_radius``).

The operations are sub, mul, div and sqrt; a float f enters them as
``(f, 0.0)``.  Every operation runs as one Python frame: Knuth's TwoSum,
Dekker's TwoProd and the closing FastTwoSum are written out inside it, and
so are the products, sums and differences that div and sqrt are composed
of, because in CPython a function call costs as much as the float
operations it would wrap.  An operand that several products share is split
once.  The float operations are the textbook composition's, in its order,
so every result is the composition's bit for bit; tests/test_doubledouble.py
keeps the composition and pins this.  So a call counter installed on this
module counts each div and sqrt as one call, not the products and sums
inside it.  The scan's per-sample kernel, ``solution.spectrum_dd``, writes
its own sums and products out the same way, with ``SPLITTER``, and calls
nothing here; the scan takes one sub per sample for its residual, and
``solution.eigenvalues_dd``, on the audited samples only, one div and one
sqrt.  No library code adds two double-doubles anywhere else, so this
module has no add.
"""

from __future__ import annotations

import math
from fractions import Fraction

DD = tuple[float, float]

SPLITTER = 134217729.0  # 2**27 + 1
# SPLITTER * a overflows once |a| reaches 2**1024 / (2**27 + 1), just under 2**997
SPLIT_MAX = 2.0**996

ZERO: DD = (0.0, 0.0)
ONE: DD = (1.0, 0.0)


def from_float(a: float) -> DD:
    return (float(a), 0.0)


def from_fraction(q: Fraction) -> DD:
    hi = float(q)
    lo = float(q - Fraction(hi))
    return (hi, lo)


def to_float(x: DD) -> float:
    return x[0] + x[1]


# In the operations below, s, e = TwoSum(xh, yh) is
#     s = xh + yh;  bb = s - xh;  e = (xh - (s - bb)) + (yh - bb)
# Dekker's split of a into ahi + alo is
#     c = SPLITTER * a;  ahi = c - (c - a);  alo = a - ahi
# the exact product p, e = TwoProd(a, b) of two floats is, with a and b split,
#     p = a * b;  e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
# and the closing FastTwoSum(s, e), which needs |s| >= |e|, is
#     h = s + e;  return h, e - (h - s)


def sub(x: DD, y: DD) -> DD:
    xh, xl = x
    yh, yl = y
    b = -yh  # TwoSum(xh, -yh), the textbook sub's float operations
    s = xh + b
    bb = s - xh
    e = ((xh - (s - bb)) + (b - bb)) + (xl - yl)
    h = s + e
    return h, e - (h - s)


def mul(x: DD, y: DD) -> DD:
    xh, xl = x
    yh, yl = y
    p = xh * yh
    c = SPLITTER * xh
    ahi = c - (c - xh)
    alo = xh - ahi
    c = SPLITTER * yh
    bhi = c - (c - yh)
    blo = yh - bhi
    e = (((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo) + (xh * yl + xl * yh)
    h = p + e
    return h, e - (h - p)


def div(x: DD, y: DD) -> DD:
    # q1 = xh / yh, r = x - y q1, q2 = rh / yh, r -= y q2, q3 = rh / yh, each
    # y q as y_q(y, q): p, e = TwoProd(yh, q), then FastTwoSum(p, e + yl q);
    # each difference as sub; yh is split once
    xh, xl = x
    yh, yl = y
    q1 = xh / yh
    c = SPLITTER * yh
    yhi = c - (c - yh)
    ylo = yh - yhi
    # y_q(y, q1)
    p = yh * q1
    c = SPLITTER * q1
    bhi = c - (c - q1)
    blo = q1 - bhi
    e = (((yhi * bhi - p) + yhi * blo + ylo * bhi) + ylo * blo) + yl * q1
    ph = p + e
    pl = e - (ph - p)
    # sub(x, (ph, pl))
    b = -ph
    s = xh + b
    bb = s - xh
    e = ((xh - (s - bb)) + (b - bb)) + (xl - pl)
    rh = s + e
    rl = e - (rh - s)
    q2 = rh / yh
    # y_q(y, q2)
    p = yh * q2
    c = SPLITTER * q2
    bhi = c - (c - q2)
    blo = q2 - bhi
    e = (((yhi * bhi - p) + yhi * blo + ylo * bhi) + ylo * blo) + yl * q2
    ph = p + e
    pl = e - (ph - p)
    # sub((rh, rl), (ph, pl)): only its hi is read
    b = -ph
    s = rh + b
    bb = s - rh
    e = ((rh - (s - bb)) + (b - bb)) + (rl - pl)
    q3 = (s + e) / yh
    s = q1 + q2
    e = (q2 - (s - q1)) + q3
    h = s + e
    return h, e - (h - s)


def sqrt(x: DD) -> DD:
    xh, xl = x
    if not xh > 0.0:
        if xh == 0.0:
            return ZERO
        if xh < 0.0:
            raise ValueError("square root of a negative double-double")
        raise ValueError(f"square root of a nan double-double {x!r}")
    s = math.sqrt(xh)
    # r = sub(x, TwoProd(s, s)), then e = (rh + rl) / 2s
    p = s * s
    c = SPLITTER * s
    shi = c - (c - s)
    slo = s - shi
    pl = ((shi * shi - p) + shi * slo + slo * shi) + slo * slo
    b = -p
    t = xh + b
    bb = t - xh
    e = ((xh - (t - bb)) + (b - bb)) + (xl - pl)
    rh = t + e
    e = (rh + (e - (rh - t))) / (2.0 * s)
    h = s + e
    if h != h:  # an infinite part or a nan lo, or s * s past the largest double
        raise ValueError(f"square root of a non-finite or out-of-range double-double {x!r}")
    return h, e - (h - s)
