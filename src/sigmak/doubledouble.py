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

This module holds the representation, Dekker's ``SPLITTER`` and its limit,
and ``from_fraction``, which rounds an exact rational once: the solution's
constants enter double-double that way, once per n.  It performs no
operation on double-doubles.  The scan's per-sample kernel,
``solution.spectrum_dd``, writes its sums, products and its one division out
with ``SPLITTER``, in one frame per block of samples, because in CPython a
function call costs as much as the float operations it would wrap; the scan
writes its residual sigma_k - 1 out the same way.  Their float operations
are the textbook composition's, in its order, so every result is the
composition's bit for bit.  The tests keep that composition, with the
textbook mul, sub, div and sqrt (tests/conftest.py), and
tests/test_doubledouble.py pins it to Knuth's TwoSum and Dekker's TwoProd.
"""

from __future__ import annotations

from fractions import Fraction

DD = tuple[float, float]

SPLITTER = 134217729.0  # 2**27 + 1
# SPLITTER * a overflows once |a| reaches 2**1024 / (2**27 + 1), just under 2**997
SPLIT_MAX = 2.0**996


def from_fraction(q: Fraction) -> DD:
    """The exact rational q rounded once: hi is q rounded to the nearest
    float, lo the rest q - hi rounded to the nearest float, so hi + lo is
    within half an ulp of lo of q."""
    hi = float(q)
    lo = float(q - Fraction(hi))
    return (hi, lo)
