import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sigma_brute
from sigmak import symbolic
from sigmak.solution import cancellation_coefficient, derive_constants
from sigmak.symbolic import (
    build_rotated_hessian,
    first_nonpositive_sigma,
    rotated_hessian_from_constants,
    sym_add,
    sym_const,
    sym_mul,
    sym_neg,
    sym_scale,
    sym_sigma_k,
    sym_sigmas,
    sym_sub,
    sym_term,
    verify_exact,
)

_monomials = st.tuples(st.integers(0, 3), st.integers(-2, 2))
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
_exprs = st.dictionaries(_monomials, _coeffs, max_size=4)


class TestArithmetic:
    def test_additive_inverse_cancels(self):
        e_t = sym_term(1, 0, 1)
        assert sym_add(e_t, sym_neg(e_t)) == {}

    def test_monomial_product(self):
        two_r_et = sym_term(2, 1, 1)
        assert sym_mul(two_r_et, two_r_et) == {(2, 2): Fraction(4)}

    def test_distribution_and_exponent_addition(self):
        # (r^2 + e^-t) * e^t = r^2 e^t + 1
        lhs = sym_add(sym_term(1, 2, 0), sym_term(1, 0, -1))
        out = sym_mul(lhs, sym_term(1, 0, 1))
        assert out == {(2, 1): Fraction(1), (0, 0): Fraction(1)}

    def test_zero_coefficients_never_stored(self):
        out = sym_add(sym_term(Fraction(1, 2), 1, 1), sym_term(Fraction(-1, 2), 1, 1))
        assert out == {}
        assert sym_mul(sym_const(0), sym_term(3, 2, 1)) == {}

    def test_negative_r_power_rejected(self):
        with pytest.raises(ValueError):
            sym_term(1, -1, 0)

    @settings(max_examples=60, deadline=None)
    @given(_exprs, _exprs, _exprs)
    def test_ring_laws(self, a, b, c):
        assert sym_add(sym_add(a, b), c) == sym_add(a, sym_add(b, c))
        assert sym_add(a, b) == sym_add(b, a)
        assert sym_mul(a, b) == sym_mul(b, a)
        assert sym_mul(sym_mul(a, b), c) == sym_mul(a, sym_mul(b, c))
        assert sym_mul(a, sym_add(b, c)) == sym_add(sym_mul(a, b), sym_mul(a, c))


class TestSymDet:
    """The determinant is the last of sym_sigmas."""

    def test_rank_one_structure_vanishes(self):
        e_t, r_et, r2_et = sym_term(1, 0, 1), sym_term(1, 1, 1), sym_term(1, 2, 1)
        m = [[e_t, r_et], [r_et, r2_et]]
        assert sym_sigmas(m)[-1] == {}

    def test_diagonal(self):
        two_et = sym_term(2, 0, 1)
        m = [[two_et, {}], [{}, two_et]]
        assert sym_sigmas(m)[-1] == {(0, 2): Fraction(4)}

    def test_corner_block_of_scaled_hessian(self):
        # [[2, 2r], [2r, r^2 + e^-t h'']] with h'' = (1/4)e^-t - e^t
        exp_neg_t_h2 = sym_add(sym_term(Fraction(1, 4), 0, -2), sym_const(-1))
        m = [
            [sym_const(2), sym_term(2, 1, 0)],
            [sym_term(2, 1, 0), sym_add(sym_term(1, 2, 0), exp_neg_t_h2)],
        ]
        assert sym_sigmas(m)[-1] == {
            (2, 0): Fraction(-2),
            (0, -2): Fraction(1, 2),
            (0, 0): Fraction(-2),
        }

    def test_no_dimension_cap(self):
        # past the old Leibniz cap of dim 8: diag(2e^t, ..., 2e^t) in dim 12
        two_et = sym_term(2, 0, 1)
        rows = [[two_et if i == j else {} for j in range(12)] for i in range(12)]
        assert sym_sigmas(rows)[-1] == {(0, 12): Fraction(2**12)}


_small_exprs = st.dictionaries(
    _monomials, st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    max_size=2,
)


@st.composite
def _sym_matrices(draw):
    dim = draw(st.integers(1, 5))
    rows = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = draw(_small_exprs)
    return rows


class _Ring:
    """A SymExpr with the +, - and * that conftest.sigma_brute uses; 0 + x is x."""

    def __init__(self, expr):
        self.expr = expr

    def __add__(self, other):
        return self if other == 0 else _Ring(sym_add(self.expr, other.expr))

    __radd__ = __add__

    def __neg__(self):
        return _Ring(sym_neg(self.expr))

    def __mul__(self, other):
        return _Ring(sym_mul(self.expr, other.expr))


def _minor_sums(m):
    """sigma_1..sigma_n of the rows m as cofactor minor sums over SymExpr."""
    rows = [[_Ring(e) for e in row] for row in m]
    return [sigma_brute(rows, j).expr for j in range(1, len(m) + 1)]


class TestSymSigmas:
    @settings(max_examples=40, deadline=None)
    @given(_sym_matrices())
    def test_trace_recursion_matches_minor_sums(self, m):
        sigmas = sym_sigmas(m)
        assert len(sigmas) == len(m)
        assert sigmas == _minor_sums(m)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_rotated_hessian_matches_minor_sums(self, n):
        m = build_rotated_hessian(n)
        assert sym_sigmas(m) == _minor_sums(m)

    def test_sigma_k_index_checked(self):
        with pytest.raises(ValueError, match="k must be"):
            sym_sigma_k(build_rotated_hessian(3), 4)

    def test_scale(self):
        assert sym_scale(sym_term(3, 1, 1), Fraction(1, 3)) == {(1, 1): Fraction(1)}
        assert sym_scale(sym_term(3, 1, 1), 0) == {}


class TestSigmaCount:
    """sym_sigmas(m, c) stops the trace recursion at sigma_c; each sigma_j it
    returns is the expression the full recursion gives."""

    @pytest.mark.parametrize("n", range(3, 22, 2))
    def test_prefix_of_the_full_recursion(self, n):
        p = derive_constants(n)
        for a_const, b_const in ((p.A, p.B), (p.A + 1, p.B), (p.A, p.B - 1)):
            m = rotated_hessian_from_constants(n, p.k, a_const, b_const)
            full = sym_sigmas(m)
            for c in range(1, n + 1):
                assert sym_sigmas(m, c) == full[:c]

    @pytest.mark.parametrize("count", [0, 4, 2.5])
    def test_count_outside_the_dimension_refused_by_name(self, count):
        with pytest.raises(ValueError, match=rf"count must be an integer in 1\.\.3 .*got {count!r}"):
            sym_sigmas(build_rotated_hessian(3), count)

    @pytest.mark.parametrize("n", [3, 7, 13])
    def test_exact_routes_ask_for_k(self, monkeypatch, n):
        real = symbolic.faddeev_leverrier
        asked = []

        def recorder(*args, **kwargs):
            asked.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("count"))
            return real(*args, **kwargs)

        monkeypatch.setattr(symbolic, "faddeev_leverrier", recorder)
        k = (n + 1) // 2
        assert verify_exact(n).ok
        sym_sigma_k(build_rotated_hessian(n), k)
        assert asked == [k, k]


class TestConeCertificate:
    POSITIVE = sym_add(sym_term(2, 0, 1), sym_term(1, 2, 1))  # 2e^t + r^2 e^t

    def test_positive_sigmas_pass(self):
        assert first_nonpositive_sigma([self.POSITIVE, self.POSITIVE, {}], 3) is None

    def test_only_sigmas_below_k_count(self):
        assert first_nonpositive_sigma([self.POSITIVE, {}, sym_const(-1)], 2) is None

    @pytest.mark.parametrize(
        "bad",
        [
            {},  # sigma_j = 0
            sym_add(sym_term(2, 0, 1), sym_term(-1, 2, 1)),  # a negative term
            sym_term(1, 2, 1),  # r^2 e^t vanishes at r = 0
        ],
    )
    def test_first_failing_j(self, bad):
        assert first_nonpositive_sigma([self.POSITIVE, bad, bad], 4) == 2

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_perturbed_constants_leave_the_cone(self, n):
        # B/A = 2(n-k)/k < 2(n-1) keeps the e^t coefficient of sigma_1
        # positive; past 2(n-1) it turns negative, and A < 0 turns the
        # e^(-(k-1)t) coefficient negative
        p = derive_constants(n)
        for bad_a, bad_b in ((p.A, p.A * 2 * n), (-p.A, p.B)):
            m = rotated_hessian_from_constants(n, p.k, bad_a, bad_b)
            assert first_nonpositive_sigma(sym_sigmas(m), p.k) == 1


class TestRotatedHessian:
    def test_n3_entries(self):
        m = build_rotated_hessian(3)
        two_et = sym_term(2, 0, 1)
        assert m[0][0] == two_et
        assert m[1][1] == two_et
        assert m[0][2] == sym_term(2, 1, 1)
        assert m[0][1] == {}
        # r^2 e^t + (1/4) e^-t - e^t
        assert m[2][2] == {
            (2, 1): Fraction(1),
            (0, -1): Fraction(1, 4),
            (0, 1): Fraction(-1),
        }

    def test_n5_h2_term(self):
        m = build_rotated_hessian(5)
        assert m[4][4] == {
            (2, 1): Fraction(1),
            (0, -2): Fraction(1, 24),
            (0, 1): Fraction(-4, 3),
        }

    def test_bulk_off_diagonal_is_zero(self):
        m = build_rotated_hessian(7)
        assert m[1][2] == {}
        assert m[2][5] == {}

    @pytest.mark.parametrize("n_base, k, shown", [
        (3, True, "k must be an integer, got True"),
        (3, 2.0, r"k must be an integer, got 2\.0"),
        (3.0, 2, r"n_base must be an integer, got 3\.0"),
    ], ids=["bool-k", "float-k", "float-n"])
    def test_a_non_integer_is_refused_by_name(self, n_base, k, shown):
        # a bool k would build a k = 1 Hessian, a float k would put float
        # exponents into the SymExpr keys, and a float n_base would fail
        # deep inside with a TypeError
        with pytest.raises(ValueError, match=f"^{shown}$"):
            rotated_hessian_from_constants(n_base, k, 4, 4)


class TestCancellation:
    @pytest.mark.parametrize("n,k", [(5, 2), (5, 3), (7, 3), (7, 4), (9, 5), (9, 4)])
    def test_r2_coefficient_tracks_the_pairing(self, n, k):
        a = Fraction(2 ** (k - 1) * (math.comb(n - 2, k - 2) + math.comb(n - 2, k - 1)))
        b = Fraction(2**k * math.comb(n - 1, k))
        total = sym_sigma_k(rotated_hessian_from_constants(n, k, a, b), k)
        r2_coeff = total.get((2, k), Fraction(0))
        expected = Fraction(2 ** (k - 1) * cancellation_coefficient(n, k))
        assert r2_coeff == expected
        assert (r2_coeff == 0) == (2 * k == n + 1)


class TestVerifyExact:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_certifies_the_construction(self, n):
        cert = verify_exact(n)
        assert cert.ok
        assert cert.residual == {}
        assert cert.k == (n + 1) // 2

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            verify_exact(4)

    @pytest.mark.parametrize("n", range(11, 33, 2))
    def test_certificate_and_cone_past_the_old_cap(self, n):
        cert = verify_exact(n)
        assert cert.residual == {}
        assert cert.cone_failure_j is None
        assert cert.identity_ok and cert.cone_ok and cert.ok

    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_perturbed_constants_fail(self, n):
        p = derive_constants(n)
        for bad_a, bad_b in ((p.A + 1, p.B), (p.A, p.B - 1)):
            total = sym_sigma_k(
                rotated_hessian_from_constants(n, p.k, bad_a, bad_b), p.k
            )
            assert sym_sub(total, sym_const(1)) != {}

