import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

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

    def test_exp_within_four_units_on_the_sample_box(self):
        # t in [-2, 2] is the scan's default box; 2^-102 is four units of 2^-104
        rng = random.Random(11)
        for _ in range(200):
            t = rng.uniform(-2.0, 2.0)
            got = as_decimal(dd.exp(dd.from_float(t)))
            ref = Decimal(t).exp()
            assert abs(got - ref) <= Decimal(2) ** -102 * ref, t

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
            for value in (dd.add(x, y), dd.mul(x, y), dd.div(x, y)):
                hi, lo = value
                if hi != 0.0:
                    assert abs(lo) <= abs(hi) * 2.0**-52

    def test_mul_pow2_is_exact(self):
        x = dd.from_fraction(Fraction(1, 3))
        doubled = dd.mul_pow2(x, 2.0)
        assert as_fraction(doubled) == as_fraction(x) * 2

    def test_to_float_collapses(self):
        assert dd.to_float(dd.from_product(3.0, 1.0 / 3.0)) == pytest.approx(1.0)
