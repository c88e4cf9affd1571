import math
import random
import struct
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmak import doubledouble as dd

getcontext().prec = 60


def as_decimal(x) -> Decimal:
    return Decimal(x[0]) + Decimal(x[1])


def as_fraction(x) -> Fraction:
    return Fraction(x[0]) + Fraction(x[1])


def random_value(rng: random.Random) -> dd.DD:
    hi = rng.uniform(-100.0, 100.0)
    lo = hi * rng.uniform(-1e-17, 1e-17)
    return dd.add_f((lo, 0.0), hi)


# The textbook compositions: Knuth's TwoSum, FastTwoSum and Dekker's TwoProd as
# functions, and each operation built from them.  doubledouble writes these
# error-free transformations out inside every operation, one Python frame per
# call; TestTextbookKernels holds it to these results bit for bit.
_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _ref_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e += x[1] + y[1]
    return _fast_two_sum(s, e)


def _ref_sub(x, y):
    s, e = _two_sum(x[0], -y[0])
    e += x[1] - y[1]
    return _fast_two_sum(s, e)


def _ref_add_f(x, f):
    s, e = _two_sum(x[0], f)
    return _fast_two_sum(s, e + x[1])


def _ref_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return _fast_two_sum(p, e)


def _ref_mul_f(x, f):
    p, e = _two_prod(x[0], f)
    return _fast_two_sum(p, e + x[1] * f)


def _ref_div(x, y):
    q1 = x[0] / y[0]
    r = _ref_sub(x, _ref_mul_f(y, q1))
    q2 = r[0] / y[0]
    r = _ref_sub(r, _ref_mul_f(y, q2))
    q3 = r[0] / y[0]
    s, e = _fast_two_sum(q1, q2)
    return _fast_two_sum(s, e + q3)


def _ref_sqrt(x):
    if x[0] == 0.0:
        return dd.ZERO
    if x[0] < 0.0:
        raise ValueError("square root of a negative double-double")
    s = math.sqrt(x[0])
    r = _ref_sub(x, _two_prod(s, s))
    h, e = _fast_two_sum(s, (r[0] + r[1]) / (2.0 * s))
    if h != h:
        raise ValueError("square root of a non-finite or out-of-range double-double")
    return h, e


def _kernel_cases(x, y, f):
    return (
        (dd.add, _ref_add, (x, y)),
        (dd.sub, _ref_sub, (x, y)),
        (dd.add_f, _ref_add_f, (x, f)),
        (dd.mul, _ref_mul, (x, y)),
        (dd.mul_f, _ref_mul_f, (x, f)),
        (dd.div, _ref_div, (x, y)),
        (dd.sqrt, _ref_sqrt, (x,)),
        (dd.sqrt, _ref_sqrt, (dd.neg(x),)),
        (dd.from_product, _two_prod, (x[0], f)),
    )


def _outcome(op, args):
    try:
        value = op(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)
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
    return _fast_two_sum(hi, hi * rng.uniform(-(2.0**-53), 2.0**-53))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_normalized = st.builds(
    lambda hi, t: _fast_two_sum(hi, hi * t * 2.0**-53), _finite, st.floats(-1.0, 1.0)
)


class TestTextbookKernels:
    def test_seeded_operands_match_bit_for_bit(self):
        rng = random.Random(2026)
        for _ in range(20_000):
            x, y, f = _random_pair(rng), _random_pair(rng), _random_double(rng)
            for op, ref, args in _kernel_cases(x, y, f):
                assert _outcome(op, args) == _outcome(ref, args), (op.__name__, args)

    @settings(max_examples=300, deadline=None)
    @given(_normalized, _normalized, _finite)
    def test_normalized_operands_match_bit_for_bit(self, x, y, f):
        for op, ref, args in _kernel_cases(x, y, f):
            assert _outcome(op, args) == _outcome(ref, args), (op.__name__, args)


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
                (dd.add, fx + fy),
                (dd.sub, fx - fy),
                (dd.mul, fx * fy),
            ):
                got = as_fraction(op(x, y))
                err = abs(got - ref)
                assert err <= Fraction(1, 10**29) * (1 + abs(ref)), op.__name__
            # add_f and mul_f carry the scan's residual and every div and exp
            f = y[0]
            for op, ref in ((dd.add_f, fx + Fraction(f)), (dd.mul_f, fx * Fraction(f))):
                got = as_fraction(op(x, f))
                assert abs(got - ref) <= Fraction(1, 10**29) * (1 + abs(ref)), op.__name__
            if fy:
                got = as_fraction(dd.div(x, y))
                ref = fx / fy
                assert abs(got - ref) <= Fraction(1, 10**29) * (1 + abs(ref))

    def test_products_of_floats_are_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.uniform(-1e6, 1e6)
            b = rng.uniform(-1e6, 1e6)
            assert as_fraction(dd.from_product(a, b)) == Fraction(a) * Fraction(b)

    def test_from_fraction_round_trip(self):
        for q in (Fraction(1, 3), Fraction(-31, 24), Fraction(1, 17920), Fraction(22, 7)):
            err = abs(as_fraction(dd.from_fraction(q)) - q)
            assert err <= Fraction(1, 10**30) * abs(q)

    def test_sqrt_against_decimal(self):
        rng = random.Random(3)
        for _ in range(100):
            x = dd.from_product(rng.uniform(0.001, 1000.0), rng.uniform(0.001, 1000.0))
            if x[0] < 0:
                x = dd.neg(x)
            got = as_decimal(dd.sqrt(x))
            ref = as_decimal(x).sqrt()
            assert abs(got - ref) <= Decimal("1e-28") * (1 + ref)

    def test_exp_against_decimal(self):
        rng = random.Random(4)
        args = [rng.uniform(-30.0, 30.0) for _ in range(60)] + [0.0, 1.0, -1.0, 700.0]
        for t in args:
            got = as_decimal(dd.exp(dd.from_float(t)))
            ref = Decimal(t).exp()
            assert abs(got - ref) <= Decimal("1e-28") * ref, t

    def test_exp_within_one_unit_on_the_sample_box(self):
        # t in [-2, 2] is the scan's default box; one unit is 2^-104
        rng = random.Random(11)
        for _ in range(200):
            t = rng.uniform(-2.0, 2.0)
            got = as_decimal(dd.exp(dd.from_float(t)))
            ref = Decimal(t).exp()
            assert abs(got - ref) <= Decimal(2) ** -104 * ref, t

    def test_exp_within_one_unit_far_from_zero(self):
        # |m| up to 433 in 2^m: the table, the reduction by ln2/64 and the
        # scaling by ldexp all take part
        rng = random.Random(12)
        for _ in range(200):
            t = rng.uniform(-300.0, 300.0)
            got = as_decimal(dd.exp(dd.from_float(t)))
            ref = Decimal(t).exp()
            assert abs(got - ref) <= Decimal(2) ** -104 * ref, t

    def test_exp_table_is_correctly_rounded(self):
        # each 2^(j/64) as the double nearest it plus the double nearest the rest
        with localcontext() as ctx:
            ctx.prec = 50
            for j, entry in enumerate(dd._EXP2_TABLE):
                exact = (Decimal(j) / 64 * Decimal(2).ln()).exp()
                hi = float(exact)
                assert entry == (hi, float(exact - Decimal(hi))), j
        assert len(dd._EXP2_TABLE) == 64

    @pytest.mark.parametrize("t", [709.0, 709.5, 709.78])
    def test_exp_near_the_largest_double(self, t):
        # from 709.44 on, round(t / ln2) is 1024 and 2^1024 alone is no double
        got = as_decimal(dd.exp(dd.from_float(t)))
        ref = Decimal(t).exp()
        assert abs(got - ref) <= Decimal("1e-28") * ref

    @pytest.mark.parametrize("x", [(709.79, 0.0), (709.782712893384, 5e-14)])
    def test_exp_overflow_is_named(self, x):
        # the second lies past log(DBL_MAX) only through its low word
        with pytest.raises(OverflowError, match="double-double exp overflow"):
            dd.exp(x)

    def test_exp_of_dd_argument(self):
        # the low word of the argument must influence the result
        t = dd.from_product(3.0, 0.123456789123456789)
        got = as_decimal(dd.exp(t))
        ref = (Decimal(t[0]) + Decimal(t[1])).exp()
        assert abs(got - ref) <= Decimal("1e-28") * ref
        hi_only = as_decimal(dd.exp((t[0], 0.0)))
        assert hi_only != got

    @pytest.mark.parametrize(
        "op, x, what",
        [
            (dd.exp, (math.nan, 0.0), "nan double-double"),
            (dd.exp, (1.0, math.nan), "nan double-double"),
            (dd.sqrt, (math.nan, 0.0), "nan double-double"),
            (dd.exp, (1.0, math.inf), "infinite low word"),
            (dd.exp, (1.0, -math.inf), "infinite low word"),
        ],
        ids=["exp-nan-hi", "exp-nan-lo", "sqrt-nan-hi", "exp-inf-lo", "exp-minus-inf-lo"],
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
            dd.sqrt(x)
        assert repr(x) in str(info.value)

    def test_exp_of_infinities(self):
        with pytest.raises(OverflowError, match="double-double exp overflow"):
            dd.exp((math.inf, 0.0))
        assert dd.exp((-math.inf, 0.0)) == dd.ZERO

    def test_exp_overflow_guard(self):
        with pytest.raises(OverflowError):
            dd.exp(dd.from_float(711.0))
        assert dd.exp(dd.from_float(-800.0)) == dd.ZERO


class TestRepresentation:
    def test_sqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            dd.sqrt(dd.from_float(-1.0))

    def test_sqrt_of_zero(self):
        assert dd.sqrt(dd.ZERO) == dd.ZERO

    def test_components_stay_normalized(self):
        rng = random.Random(12)
        for _ in range(100):
            x = random_value(rng)
            y = random_value(rng)
            positive = x if x[0] >= 0.0 else dd.neg(x)
            f = y[0]
            for value in (
                dd.add(x, y), dd.sub(x, y), dd.add_f(x, f), dd.mul(x, y),
                dd.mul_f(x, f), dd.div(x, y), dd.sqrt(positive),
            ):
                hi, lo = value
                if hi != 0.0:
                    assert abs(lo) <= abs(hi) * 2.0**-52

    def test_mul_pow2_is_exact(self):
        x = dd.from_fraction(Fraction(1, 3))
        doubled = dd.mul_pow2(x, 2.0)
        assert as_fraction(doubled) == as_fraction(x) * 2

    def test_to_float_collapses(self):
        assert dd.to_float(dd.from_product(3.0, 1.0 / 3.0)) == pytest.approx(1.0)
