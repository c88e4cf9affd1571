import math
import random
import struct
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DD_ONE,
    DD_ZERO,
    dd_add,
    dd_div,
    dd_sqrt,
    dd_sub,
    fast_two_sum,
    mul_f,
    mul_pow2,
    sum_squares,
    to_float,
    two_prod,
    two_sum,
)
from sigmak import doubledouble as dd

getcontext().prec = 60


def as_decimal(x) -> Decimal:
    return Decimal(x[0]) + Decimal(x[1])


def as_fraction(x) -> Fraction:
    return Fraction(x[0]) + Fraction(x[1])


def random_value(rng: random.Random) -> dd.DD:
    hi = rng.uniform(-100.0, 100.0)
    lo = hi * rng.uniform(-1e-17, 1e-17)
    return dd_add((lo, 0.0), (hi, 0.0))


# The textbook compositions: each operation built from Knuth's TwoSum,
# FastTwoSum and Dekker's TwoProd as functions (conftest's two_sum,
# fast_two_sum and two_prod).  doubledouble's mul writes these error-free
# transformations out inside it, one Python frame per call, and so do
# conftest's dd_add and dd_sub, the add and sub of the scan kernel's test
# composition (the scan writes dd_sub's operations out for its residual);
# TestTextbookKernels holds them, and that composition's sum_squares, to these
# results bit for bit.  The composition's division and square root, conftest's
# dd_div and dd_sqrt, are textbook compositions themselves; TestExactOracles
# and TestRepresentation check them.
def _ref_add(x, y):
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return fast_two_sum(s, e)


def _ref_sub(x, y):
    s, e = two_sum(x[0], -y[0])
    e += x[1] - y[1]
    return fast_two_sum(s, e)


def _ref_mul(x, y):
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return fast_two_sum(p, e)


def _ref_sum_squares(xs):
    r = DD_ZERO
    for v in xs:
        r = _ref_add(r, two_prod(v, v))
    return r


def _kernel_cases(x, y, f, z, w):
    # z and w feed sum_squares' floats
    return (
        (dd_add, _ref_add, (x, y)),
        (dd_sub, _ref_sub, (x, y)),
        (dd.mul, _ref_mul, (x, y)),
        (dd.mul, _ref_mul, (x, (f, 0.0))),
        (sum_squares, _ref_sum_squares, ((x[0], f, y[1], z[0], w[0], y[0]),)),
    )


def _outcome(op, args):
    value = op(*args)
    # past SPLIT_MAX a split overflows into inf - inf; the sign of a nan made
    # from two nans is not reproducible in CPython, so a nan part compares as
    # "nan" and every other part by its bytes
    return tuple("nan" if part != part else struct.pack("<d", part) for part in value)


def _random_double(rng: random.Random) -> float:
    sign = rng.choice((1.0, -1.0))
    u = rng.random()
    if u < 0.05:
        return sign * 0.0
    if u < 0.10:
        return sign * rng.random() * 2.0**-1022  # subnormal
    if u < 0.15:
        return sign * 2.0 ** rng.randint(-1074, -1060)  # near 2^-1070
    if u < 0.50:
        return sign * rng.random() * 2.0 ** rng.randint(-1070, 990)
    return sign * rng.random() * 2.0 ** rng.randint(-40, 40)


def _random_pair(rng: random.Random) -> dd.DD:
    hi = _random_double(rng)
    u = rng.random()
    if u < 0.2:
        return (hi, 0.0)
    if u < 0.3:
        return (hi, _random_double(rng))  # any two doubles, normalized or not
    return fast_two_sum(hi, hi * rng.uniform(-(2.0**-53), 2.0**-53))


def _normalized_pairs(his):
    return st.builds(
        lambda hi, t: fast_two_sum(hi, hi * t * 2.0**-53), his, st.floats(-1.0, 1.0)
    )


_finite = st.floats(allow_nan=False, allow_infinity=False)
_normalized = _normalized_pairs(_finite)


class TestTextbookKernels:
    def test_seeded_operands_match_bit_for_bit(self):
        rng = random.Random(2026)
        for _ in range(20_000):
            x, y, f = _random_pair(rng), _random_pair(rng), _random_double(rng)
            z, w = _random_pair(rng), _random_pair(rng)
            for op, ref, args in _kernel_cases(x, y, f, z, w):
                assert _outcome(op, args) == _outcome(ref, args), (op.__name__, args)

    @settings(max_examples=300, deadline=None)
    @given(_normalized, _normalized, _finite, _normalized, _normalized)
    def test_normalized_operands_match_bit_for_bit(self, x, y, f, z, w):
        for op, ref, args in _kernel_cases(x, y, f, z, w):
            assert _outcome(op, args) == _outcome(ref, args), (op.__name__, args)

    def test_a_float_operand_rounds_as_a_float_kernel_would(self):
        # mul(x, (f, 0.0)) adds only x_hi * 0.0 to the terms of the textbook
        # product of x by the float f, so its value is that product's (a zero
        # may change sign), and sub(x, ONE) is the float sum x + (-1.0) bit
        # for bit: the scan's e^t products and its residual sigma_k - 1
        def value(op, args):
            return tuple("nan" if part != part else part for part in op(*args))

        def add_float(x, f):
            s, e = two_sum(x[0], f)
            return fast_two_sum(s, e + x[1])

        rng = random.Random(2027)
        for _ in range(20_000):
            x, f = _random_pair(rng), _random_double(rng)
            assert value(dd.mul, (x, (f, 0.0))) == value(mul_f, (x, f)), (x, f)
            assert _outcome(dd_sub, (x, DD_ONE)) == _outcome(add_float, (x, -1.0)), x


class TestExactOracles:
    def test_field_ops_against_fractions(self):
        # +, -, * and / of doubles are exact rational operations, so Fraction
        # arithmetic is a perfect oracle for the double-double error
        rng = random.Random(99)
        for _ in range(300):
            x = random_value(rng)
            y = random_value(rng)
            fx, fy = as_fraction(x), as_fraction(y)
            for op, ref in (
                (dd_add, fx + fy),
                (dd_sub, fx - fy),
                (dd.mul, fx * fy),
            ):
                got = as_fraction(op(x, y))
                err = abs(got - ref)
                assert err <= Fraction(1, 10**29) * (1 + abs(ref)), op.__name__
            # the scan's residual sigma_k - 1 and its products by e^t
            f = y[0]
            for op, z, ref in ((dd_sub, DD_ONE, fx - 1), (dd.mul, (f, 0.0), fx * Fraction(f))):
                got = as_fraction(op(x, z))
                assert abs(got - ref) <= Fraction(1, 10**29) * (1 + abs(ref)), op.__name__
            if fy:
                got = as_fraction(dd_div(x, y))
                ref = fx / fy
                assert abs(got - ref) <= Fraction(1, 10**29) * (1 + abs(ref))

    def test_products_of_floats_are_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.uniform(-1e6, 1e6)
            b = rng.uniform(-1e6, 1e6)
            assert as_fraction(dd.mul((a, 0.0), (b, 0.0))) == Fraction(a) * Fraction(b)

    def test_from_fraction_round_trip(self):
        for q in (Fraction(1, 3), Fraction(-31, 24), Fraction(1, 17920), Fraction(22, 7)):
            err = abs(as_fraction(dd.from_fraction(q)) - q)
            assert err <= Fraction(1, 10**30) * abs(q)

    def test_sqrt_against_decimal(self):
        rng = random.Random(3)
        for _ in range(100):
            x = dd.mul((rng.uniform(0.001, 1000.0), 0.0), (rng.uniform(0.001, 1000.0), 0.0))
            got = as_decimal(dd_sqrt(x))
            ref = as_decimal(x).sqrt()
            assert abs(got - ref) <= Decimal("1e-28") * (1 + ref)

    @pytest.mark.parametrize(
        "op, x, what",
        [
            (dd_sqrt, (math.nan, 0.0), "nan double-double"),
        ],
        ids=["sqrt-nan-hi"],
    )
    def test_nan_is_refused_by_name(self, op, x, what):
        with pytest.raises(ValueError, match=what) as info:
            op(x)
        assert repr(x) in str(info.value)

    @pytest.mark.parametrize(
        "x",
        [(math.inf, 0.0), (1.0, math.nan), (4.0, math.inf)],
        ids=["inf-hi", "nan-lo", "inf-lo"],
    )
    def test_sqrt_of_non_finite_is_refused_by_name(self, x):
        with pytest.raises(ValueError, match="non-finite or out-of-range double-double") as info:
            dd_sqrt(x)
        assert repr(x) in str(info.value)


class TestRepresentation:
    def test_sqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            dd_sqrt(dd.from_float(-1.0))

    def test_sqrt_of_zero(self):
        assert dd_sqrt(DD_ZERO) == DD_ZERO

    def test_components_stay_normalized(self):
        rng = random.Random(12)
        for _ in range(100):
            x = random_value(rng)
            y = random_value(rng)
            positive = x if x[0] >= 0.0 else (-x[0], -x[1])
            for value in (
                dd_add(x, y), dd_sub(x, y), dd.mul(x, y), dd_div(x, y), dd_sqrt(positive),
            ):
                hi, lo = value
                if hi != 0.0:
                    assert abs(lo) <= abs(hi) * 2.0**-52

    def test_mul_pow2_is_exact(self):
        x = dd.from_fraction(Fraction(1, 3))
        doubled = mul_pow2(x, 2.0)
        assert as_fraction(doubled) == as_fraction(x) * 2

    def test_to_float_collapses(self):
        assert to_float(dd.mul((3.0, 0.0), (1.0 / 3.0, 0.0))) == pytest.approx(1.0)
