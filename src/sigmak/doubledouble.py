"""Double-double arithmetic: ~31 significant decimal digits per value.

A value is an unevaluated sum ``hi + lo`` of two floats with
``|lo| <= ulp(hi)/2``, stored as a plain tuple ``(hi, lo)``.  The point
evaluation of sigma_k at a sampled point is a cancellation of terms as large
as ``|H|^k`` down to a value near 1, so its absolute error in plain double
precision can reach ~1e-8 for k = 4 on the standard sample box.  Carrying the
residual pipeline (the Hessian's constants, its closed-form eigenvalues and
sigma_1..sigma_k) in double-double pushes that error below 1e-20.

exp is Tang's table-driven method (see exp): one reduction by ln2/64, a
degree-10 Horner sum and a 64-entry table of 2^(j/64), with no squaring and
no division.  Against 60-digit decimals (3000 seeded points per range) it is
within 0.44 * 2^-104 relative on [-2, 2] and within 0.40 * 2^-104 on
[-30, 30] and on [-300, 300].

No FMA is assumed: products are split with Dekker's algorithm, which is exact
while operands and products stay below ``SPLIT_MAX`` = 2**996 (~6.7e299);
past that the split's ``_SPLITTER * a`` overflows.  Callers that could reach
it guard their inputs (see ``solution._check_radius``).

Every operation runs as one Python frame: Knuth's TwoSum, Dekker's TwoProd
and the closing FastTwoSum are written out inside it, and so are the
products, sums and differences that div, sqrt, exp and rotate are composed
of, because in CPython a function call costs as much as the float operations
it would wrap.  An operand that several products share is split once.  The
float operations are the textbook composition's, in its order, so every
result is the composition's bit for bit; tests/test_doubledouble.py keeps
the composition and pins this.  So a call counter installed on this module
counts each exp, div, sqrt and rotate as one call, not the products and
sums inside it; ring() looks the operations up on the module, so the
counter still sees every call the Jacobi makes.
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


# In the operations below, s, e = TwoSum(xh, yh) is
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
    # q1 = xh / yh, r = x - y q1, q2 = rh / yh, r -= y q2, q3 = rh / yh, each
    # y q as mul_f(y, q) and each difference as sub; yh is split once
    xh, xl = x
    yh, yl = y
    q1 = xh / yh
    c = _SPLITTER * yh
    yhi = c - (c - yh)
    ylo = yh - yhi
    # mul_f(y, q1)
    p = yh * q1
    c = _SPLITTER * q1
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
    # mul_f(y, q2)
    p = yh * q2
    c = _SPLITTER * q2
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
    # r = sub(x, from_product(s, s)), then e = (rh + rl) / 2s
    p = s * s
    c = _SPLITTER * s
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


# e^x is finite for every double x up to log(DBL_MAX), rounded down
_EXP_MAX = 709.782712893384
_EXP_STEPS = 64.0 / 0.6931471805599453  # 64 / ln 2
# ln2/64 = _LN2_64_HI + _LN2_64_LO (Cody and Waite): the hi keeps 36 significant
# bits, so kk * _LN2_64_HI is exact for |kk| < 2^17, which covers every kk
# that exp reaches (|x| <= 746), and the lo is a double-double
_LN2_64_HI = 0.010830424696223417
_LN2_64_LO: DD = (2.572804622327669e-14, -1.5746795524851787e-30)
# 1/j! for j = 1..10, as double-doubles: exp's Horner sum for e^r - 1
_EXP_TAYLOR = tuple(from_fraction(Fraction(1, math.factorial(j))) for j in range(1, 11))
_EXP_HORNER = _EXP_TAYLOR[-2::-1]  # the coefficients that Horner's loop adds
# 2^(j/64) for j = 0..63, each the correctly rounded double-double
_EXP2_TABLE: tuple[DD, ...] = (
    (1.0, 0.0),
    (1.0108892860517005, -1.5234778603368577e-17),
    (1.0218971486541166, 5.109225028973444e-17),
    (1.0330248790212284, 7.600838874027088e-18),
    (1.0442737824274138, 8.551889705537965e-17),
    (1.0556451783605572, 1.759325738772092e-18),
    (1.0671404006768237, -7.899853966841582e-17),
    (1.0787607977571199, -6.656660436056593e-17),
    (1.0905077326652577, -3.046782079812471e-17),
    (1.102382583307841, 5.2660368715706944e-17),
    (1.1143867425958924, 1.0410278456845571e-16),
    (1.1265216186082418, 5.165856758795457e-17),
    (1.1387886347566916, 8.912812676025408e-17),
    (1.1511892299529827, 3.250710218863827e-17),
    (1.1637248587775775, 3.8292048369240935e-17),
    (1.1763969916502812, 5.554203254218079e-17),
    (1.189207115002721, 3.982015231465646e-17),
    (1.202156731452703, 6.644981499252301e-17),
    (1.215247359980469, -7.712630692681488e-17),
    (1.22848053610687, -1.89878163130253e-17),
    (1.241857812073484, 4.658027591836937e-17),
    (1.255380757024691, -6.7113898212968784e-18),
    (1.2690509571917332, 2.667932131342186e-18),
    (1.2828700160787783, 1.713594918243561e-17),
    (1.2968395546510096, 2.5382502794888315e-17),
    (1.3109612115247644, -7.181536135519454e-17),
    (1.3252366431597413, -2.8587312100388614e-17),
    (1.339667524053303, 8.927282594831732e-17),
    (1.3542555469368927, 7.70094837980299e-17),
    (1.3690024229745905, 9.593797919118849e-17),
    (1.383909881963832, -6.770511658794786e-17),
    (1.3989796725383112, -9.614213209051323e-17),
    (1.4142135623730951, -9.667293313452913e-17),
    (1.42961333839197, -1.2031642489053655e-17),
    (1.4451808069770467, -3.0237581349939873e-17),
    (1.460917794180647, -5.600377186075216e-17),
    (1.4768261459394993, -3.483994556892796e-17),
    (1.4929077282912648, 1.4192920154284036e-17),
    (1.5091644275934228, -1.016455327754295e-16),
    (1.5255981507445384, -1.1024941712342561e-16),
    (1.5422108254079407, 7.949834809697621e-17),
    (1.559004400237837, 3.7812070533575275e-17),
    (1.5759808451078865, -1.0136916471278304e-17),
    (1.593142151342267, -1.0094406542311964e-16),
    (1.6104903319492543, 2.4707192569797888e-17),
    (1.6280274218573478, -6.712955084707084e-17),
    (1.645755478153965, -1.0125679913674773e-16),
    (1.6636765803267364, 5.8909926967131e-17),
    (1.681792830507429, 8.199010020581497e-17),
    (1.7001063537185235, -8.0237193703977e-18),
    (1.718619298122478, -1.851380418263111e-17),
    (1.7373338352737062, 3.164389299292957e-17),
    (1.7562521603732995, 2.960140695448873e-17),
    (1.7753764925265212, 6.429731796556572e-17),
    (1.7947090750031072, 1.8227458427912087e-17),
    (1.8142521755003989, -9.969531538920349e-17),
    (1.8340080864093424, 3.283107224245627e-17),
    (1.8539791250833855, 9.761887490727594e-17),
    (1.8741676341103, -6.122763413004143e-17),
    (1.8945759815869656, 3.4034035352165297e-17),
    (1.9152065613971474, -1.0619946056195963e-16),
    (1.9360617934922943, 1.0332385960676326e-16),
    (1.9571441241754002, 8.960767791036668e-17),
    (1.978456026387951, 4.0388753109278167e-17),
)


def exp(x: DD) -> DD:
    """exp of a double-double by Tang's table-driven method.

    Tang, "Table-driven implementation of the exponential function in IEEE
    floating-point arithmetic" (ACM TOMS 15(2), 1989): with
    kk = round(64 x / ln2) = 64 m + j (0 <= j < 64), x = m ln2 + j ln2/64 + r
    with |r| <= ln2/128, so e^x = 2^m 2^(j/64) e^r.  r is reduced with the
    two-part ln2/64 above; e^r - 1 is a degree-10 Horner sum (the first
    omitted term, r^11/11!, is below 0.1 units of 2^-104), and the result is
    2^m (T_j + T_j (e^r - 1)) with T_j = 2^(j/64) from a table.  Raises
    OverflowError where e^x exceeds the largest double and ValueError where
    either part of x is nan or the low part is infinite.
    """
    xh, xl = x
    if math.isnan(xh) or math.isnan(xl):
        raise ValueError(f"exp of a nan double-double {x!r}")
    if math.isinf(xl):
        raise ValueError(f"exp of a double-double with an infinite low word {x!r}")
    if xh > _EXP_MAX:
        raise OverflowError("double-double exp overflow")
    if xh < -746.0:
        return ZERO
    kk = round(xh * _EXP_STEPS)
    m, j = divmod(kk, 64)
    # r = sub(add_f((xl, 0.0), xh - kk * hi), mul_f(_LN2_64_LO, kk)).
    # xh - kk * hi is exact (Sterbenz: for kk != 0 the two lie within a
    # factor of 2), and so is its TwoSum with xl
    f = xh - kk * _LN2_64_HI
    s = xl + f
    bb = s - xl
    e = ((xl - (s - bb)) + (f - bb)) + 0.0
    ah = s + e
    al = e - (ah - s)
    lh, ll = _LN2_64_LO
    f = float(kk)
    p = lh * f
    c = _SPLITTER * lh
    ahi = c - (c - lh)
    alo = lh - ahi
    c = _SPLITTER * f
    bhi = c - (c - f)
    blo = f - bhi
    e = (((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo) + ll * f
    bh = p + e
    b = -bh
    s = ah + b
    bb = s - ah
    e = ((ah - (s - bb)) + (b - bb)) + (al - (e - (bh - p)))
    rh = s + e
    rl = e - (rh - s)
    c = _SPLITTER * rh
    rhi = c - (c - rh)
    rlo = rh - rhi
    # Horner: p = add(coeff, mul(p, r)) from the highest coefficient down,
    # then p r, T_j p r and T_j + T_j p r, with mul and add written out
    ph, pl = _EXP_TAYLOR[-1]
    for th, tl in _EXP_HORNER:
        p = ph * rh
        c = _SPLITTER * ph
        ahi = c - (c - ph)
        alo = ph - ahi
        e = (((ahi * rhi - p) + ahi * rlo + alo * rhi) + alo * rlo) + (ph * rl + pl * rh)
        ah = p + e
        al = e - (ah - p)
        s = th + ah
        bb = s - th
        e = ((th - (s - bb)) + (ah - bb)) + (tl + al)
        ph = s + e
        pl = e - (ph - s)
    p = ph * rh
    c = _SPLITTER * ph
    ahi = c - (c - ph)
    alo = ph - ahi
    e = (((ahi * rhi - p) + ahi * rlo + alo * rhi) + alo * rlo) + (ph * rl + pl * rh)
    ah = p + e
    al = e - (ah - p)
    th, tl = _EXP2_TABLE[j]
    p = th * ah
    c = _SPLITTER * th
    thi = c - (c - th)
    tlo = th - thi
    c = _SPLITTER * ah
    ahi = c - (c - ah)
    alo = ah - ahi
    e = (((thi * ahi - p) + thi * alo + tlo * ahi) + tlo * alo) + (th * al + tl * ah)
    ah = p + e
    al = e - (ah - p)
    s = th + ah
    bb = s - th
    e = ((th - (s - bb)) + (ah - bb)) + (tl + al)
    h = s + e
    try:
        # each part scaled on its own: 2^m alone overflows for m = 1024
        return math.ldexp(h, m), math.ldexp(e - (h - s), m)
    except OverflowError:
        raise OverflowError("double-double exp overflow") from None


def rotate(c: DD, s: DD, x: DD, y: DD) -> tuple[DD, DD]:
    """The plane rotation (c x - s y, s x + c y) of one pair of entries.

    That is sub(mul(c, x), mul(s, y)) and add(mul(s, x), mul(c, y)), written
    out with each operand's hi split once.
    """
    ch, cl = c
    sh, sl = s
    xh, xl = x
    yh, yl = y
    t = _SPLITTER * ch
    c1 = t - (t - ch)
    c2 = ch - c1
    t = _SPLITTER * sh
    s1 = t - (t - sh)
    s2 = sh - s1
    t = _SPLITTER * xh
    x1 = t - (t - xh)
    x2 = xh - x1
    t = _SPLITTER * yh
    y1 = t - (t - yh)
    y2 = yh - y1
    # mul(c, x) and mul(s, y)
    p = ch * xh
    e = (((c1 * x1 - p) + c1 * x2 + c2 * x1) + c2 * x2) + (ch * xl + cl * xh)
    ah = p + e
    al = e - (ah - p)
    p = sh * yh
    e = (((s1 * y1 - p) + s1 * y2 + s2 * y1) + s2 * y2) + (sh * yl + sl * yh)
    bh = p + e
    bl = e - (bh - p)
    # sub
    b = -bh
    t = ah + b
    bb = t - ah
    e = ((ah - (t - bb)) + (b - bb)) + (al - bl)
    uh = t + e
    ul = e - (uh - t)
    # mul(s, x) and mul(c, y)
    p = sh * xh
    e = (((s1 * x1 - p) + s1 * x2 + s2 * x1) + s2 * x2) + (sh * xl + sl * xh)
    ah = p + e
    al = e - (ah - p)
    p = ch * yh
    e = (((c1 * y1 - p) + c1 * y2 + c2 * y1) + c2 * y2) + (ch * yl + cl * yh)
    bh = p + e
    bl = e - (bh - p)
    # add
    t = ah + bh
    bb = t - ah
    e = ((ah - (t - bb)) + (bh - bb)) + (al + bl)
    vh = t + e
    return (uh, ul), (vh, e - (vh - t))


def ring() -> SimpleNamespace:
    """The double-double ring of symfunc's cyclic Jacobi.

    On its audited samples the scan diagonalizes the double-double Hessian
    with the same cyclic Jacobi as cone-check and phase-check, carried in
    this arithmetic, to check its closed-form spectrum (at sample-box
    corners |sigma_k - 1| is below what plain doubles can resolve, see the
    module docstring).  The skip rule and the off-diagonal norm read only the
    leading float hi, which is the rounded value hi + lo; the ascending sort
    compares (hi, lo) pairs, which order as their values.  The
    operations are looked up on every call, never stored, so that a wrapper
    installed on this module (a call counter) sees the Jacobi's calls too.
    """
    return SimpleNamespace(
        name="double-double", add=add, sub=sub, mul=mul, div=div, sqrt=sqrt,
        rotate=rotate, lead=itemgetter(0), zero=ZERO, one=ONE,
    )
