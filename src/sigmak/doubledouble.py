"""Double-double arithmetic: ~31 significant decimal digits per value.

A value is an unevaluated sum ``hi + lo`` of two floats with
``|lo| <= ulp(hi)/2``, stored as a plain tuple ``(hi, lo)``.  The point
evaluation of sigma_k at a sampled point is a cancellation of terms as large
as ``|H|^k`` down to a value near 1, so its absolute error in plain double
precision can reach ~1e-8 for k = 4 on the standard sample box.  Carrying the
residual pipeline (the Hessian's constants, its terms and
sigma_1..sigma_k) in double-double pushes that error below 1e-20.

No FMA is assumed: products are split with Dekker's algorithm, which is exact
while operands and products stay below ``SPLIT_MAX`` = 2**996 (~6.7e299);
past that the split's ``SPLITTER * a`` overflows.  Callers that could reach
it guard their inputs, t and then the Hessian's norm, by one function,
``solution._check_overflow``: a point, or the scan's whole box of samples,
once, with a margin that covers every sample in it.

The one operation is mul, which the solution's constants take once per n;
a float f enters it as ``(f, 0.0)``.  It runs as one Python frame, with
Dekker's TwoProd and the closing FastTwoSum written out inside it, because
in CPython a function call costs as much as the float operations it would
wrap.  The float operations are the textbook composition's, in its order,
so every result is the composition's bit for bit;
tests/test_doubledouble.py keeps the composition and pins this.  The scan's
per-sample kernel, ``solution.spectrum_dd``, writes its own sums, products
and its one division out the same way, with ``SPLITTER``, in one frame per
block of samples, and calls nothing here; the scan writes its residual
sigma_k - 1 out the same way too.  No library code adds, subtracts, divides
or takes the square root of double-doubles anywhere else, so this module
has no add, sub, div or sqrt; the tests keep the textbook sub, div and sqrt
(tests/conftest.py).
"""

from __future__ import annotations

from fractions import Fraction

DD = tuple[float, float]

SPLITTER = 134217729.0  # 2**27 + 1
# SPLITTER * a overflows once |a| reaches 2**1024 / (2**27 + 1), just under 2**997
SPLIT_MAX = 2.0**996


def from_float(a: float) -> DD:
    return (float(a), 0.0)


def from_fraction(q: Fraction) -> DD:
    hi = float(q)
    lo = float(q - Fraction(hi))
    return (hi, lo)


# In the textbook operations, s, e = TwoSum(xh, yh) is
#     s = xh + yh;  bb = s - xh;  e = (xh - (s - bb)) + (yh - bb)
# Dekker's split of a into ahi + alo is
#     c = SPLITTER * a;  ahi = c - (c - a);  alo = a - ahi
# the exact product p, e = TwoProd(a, b) of two floats is, with a and b split,
#     p = a * b;  e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
# and the closing FastTwoSum(s, e), which needs |s| >= |e|, is
#     h = s + e;  return h, e - (h - s)


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
