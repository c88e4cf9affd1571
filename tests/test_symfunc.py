import math
import operator
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DD_ONE,
    DD_ZERO,
    charpoly_sigmas,
    dd_add,
    dd_div,
    dd_elementary_symmetric,
    dd_mul,
    diagonal,
    e_brute,
    frobenius_norm,
    random_rotation,
    random_symmetric,
    rotate_exactly_symmetric,
    sigma_minors,
    to_float,
)
from sigmak import cli
from sigmak import symfunc
from sigmak.errors import ConvergenceError
from sigmak.symbolic import sym_add, sym_const, sym_mul, sym_scale
from sigmak.symfunc import eigenvalues_symmetric, elementary_symmetric


def exact_div(value: int, j: int) -> int:
    """value / j over ints, refusing a remainder: the int ring's division."""
    quotient, remainder = divmod(value, j)
    assert not remainder, (value, j)
    return quotient


def e_k(values, k):
    """e_k for any k >= 0: e_0 = 1, and 0 past the number of values."""
    e = [1] + elementary_symmetric(values)
    return e[k] if k < len(e) else 0


class TestElementarySymmetric:
    def test_empty_and_single_value(self):
        # the recurrence starts from e_1 = the first value, i.e. e_0 = 1
        assert elementary_symmetric([]) == []
        assert elementary_symmetric([7.5]) == [7.5]
        assert elementary_symmetric([3.0, -1.0, 7.5]) == [9.5, 12.0, -22.5]

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (8, 8)])
    def test_all_ones_gives_binomial(self, n, k):
        assert elementary_symmetric([1] * n)[k - 1] == math.comb(n, k)
        assert elementary_symmetric([1] * n) == [math.comb(n, j) for j in range(1, n + 1)]

    def test_pairs_of_123(self):
        # 1*2 + 1*3 + 2*3
        assert elementary_symmetric([1, 2, 3]) == [6, 11, 6]
        assert e_brute([1, 2, 3], 2) == 11

    def test_exact_on_rationals(self):
        # spectrum of the n=5 solution Hessian at the origin
        vals = [2, 2, 2, 2, Fraction(-31, 24)]
        assert elementary_symmetric(vals)[2] == 1
        assert e_brute(vals, 3) == 1

    def test_matches_brute_force_on_random_input(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randrange(1, 9)
            vals = [rng.uniform(-4, 4) for _ in range(n)]
            for k in range(n + 1):
                got = e_k(vals, k)
                want = e_brute(vals, k)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_partial_derivative_identity_exact(self, vals, k):
        # e_k(v) - e_k(v[1:]) = v[0] * e_(k-1)(v[1:]), exactly over the integers
        k = min(k, len(vals))
        tail = vals[1:]
        lhs = e_k(vals, k) - e_k(tail, k)
        assert lhs == vals[0] * e_k(tail, k - 1)


class TestSymmetricMatrix:
    """A float matrix is its rows.  eigenvalues_symmetric (and gamma_k, see
    test_cone) refuses rows that are empty, not square or not finite, naming
    the row and column (from 1), and then rows that are not exactly
    symmetric.  Rows symmetric up to noise are averaged by the matrix file
    reader (test_cli.TestMatrixFileReader)."""

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match=r"^matrix is not symmetric: entries \(2, 1\) "
                                             r"and \(1, 2\) differ$"):
            eigenvalues_symmetric([[1.0, 2.0], [2.0000001, 1.0]])

    def test_rejects_nonsquare(self):
        for rows, message in [
            ([], r"^matrix dimension must be >= 1$"),
            ([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]], r"^expected a square matrix, got 3 entries in row 1$"),
            ([[1.0, 2.0], [2.0]], r"^expected a square matrix, got 1 entries in row 2$"),
            (3.0, r"^expected a square matrix given as a sequence of rows$"),
        ]:
            with pytest.raises(ValueError, match=message):
                eigenvalues_symmetric(rows)

    def test_dim_one(self):
        assert eigenvalues_symmetric(((4.0,),)) == (4.0,)

    @pytest.mark.parametrize("build", [eigenvalues_symmetric])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cells, named",
        [
            ([(0, 0)], "row 1, column 1"),
            ([(2, 2)], "row 3, column 3"),
            ([(1, 2), (2, 1)], "row 2, column 3"),
            ([(2, 0)], "row 3, column 1"),
        ],
        ids=["first-diagonal", "last-diagonal", "mirrored-pair", "lower-triangle"],
    )
    def test_rejects_non_finite_entry(self, build, bad, cells, named):
        # finiteness is checked before symmetry: a lone non-finite entry
        # off the diagonal is named as such, not as an asymmetric pair
        rows = [[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]]
        for i, j in cells:
            rows[i][j] = bad
        with pytest.raises(ValueError, match=f"^matrix entry {bad} at {named} is not finite$"):
            build(rows)

    def test_stores_plain_float_tuples_from_any_rows(self):
        rows = symfunc._float_rows(np.array([[1, 2], [2, 3]]))
        assert rows == ((1.0, 2.0), (2.0, 3.0))
        assert all(type(v) is float for row in rows for v in row)
        assert eigenvalues_symmetric(np.array([[2, 0], [0, 1]])) == (1.0, 2.0)

    def test_symmetrized_rejects_beyond_tolerance(self, tmp_path):
        # the matrix file reader is the one symmetrizer: a mirrored pair
        # further apart than SYMMETRY_TOL is named, not averaged
        path = tmp_path / "matrix.txt"
        path.write_text("2\n1.0 2.1\n2.0 1.0\n")
        with pytest.raises(ValueError, match=r"^matrix file .*: matrix asymmetry 0\.1 between "
                                             r"entries \(1, 2\) and \(2, 1\) exceeds "
                                             r"tolerance 1e-12$"):
            cli._read_matrix_file(str(path))


class TestSigmaViaMinors:
    """Value pins of the tests' principal-minor sum, conftest.sigma_minors."""

    def test_identity_3x3(self):
        assert sigma_minors(diagonal([1.0] * 3), 2) == pytest.approx(3.0)

    def test_single_2x2_determinant(self):
        m = [[2.0, 4.0], [4.0, 3.0]]
        assert sigma_minors(m, 2) == pytest.approx(-10.0)

    def test_matches_elementary_symmetric_on_diagonal(self):
        m = diagonal([1.0, 2.0, 3.0])
        assert sigma_minors(m, 2) == pytest.approx(11.0)


class TestCharpoly:
    def test_diag_123(self):
        sv = charpoly_sigmas(diagonal([1.0, 2.0, 3.0]))
        # (x-1)(x-2)(x-3) expanded
        assert sv == pytest.approx((6.0, 11.0, 6.0))

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_identity_gives_binomials(self, n):
        sv = charpoly_sigmas(diagonal([1.0] * n))
        assert sv == pytest.approx(tuple(math.comb(n, j) for j in range(1, n + 1)))

    def test_zero_matrix(self):
        sv = charpoly_sigmas(np.zeros((4, 4)))
        assert sv == (0.0, 0.0, 0.0, 0.0)

    def test_trace_and_det_invariants(self):
        m = [[3.0, 1.0, 0.5], [1.0, -2.0, 2.0], [0.5, 2.0, 1.0]]
        sv = charpoly_sigmas(m)
        tr = float(np.trace(m))
        assert abs(sv[0] - tr) <= 1e-10 * (1 + abs(tr))
        det = float(np.linalg.det(m))
        assert abs(sv[2] - det) <= 1e-10 * (1 + abs(det))


class TestFaddeevLeverrierCount:
    """With a count the trace recursion stops at sigma_count; each sigma_j it
    returns is the float the full recursion gives."""

    @staticmethod
    def sigmas(m, count=None):
        return symfunc.faddeev_leverrier(
            m, operator.add, operator.mul, operator.truediv, 0.0, count
        )

    def test_prefix_on_random_symmetric_matrices(self):
        rng = random.Random(61)
        for _ in range(30):
            m = random_symmetric(rng, rng.randrange(1, 10))
            full = self.sigmas(m)
            assert len(full) == len(m)
            for c in range(1, len(m) + 1):
                assert self.sigmas(m, c) == full[:c]

    @pytest.mark.parametrize("count", [0, 4, 2.5, -1, True])
    def test_count_outside_the_dimension_refused_by_name(self, count):
        m = diagonal([1.0] * 3)
        with pytest.raises(ValueError, match=rf"count must be an integer in 1\.\.3 \(the dimension\), got {count!r}"):
            self.sigmas(m, count)


class TestFaddeevLeverrierInput:
    """The recursion forms only the upper triangle of each A M_j, so in each
    of its rings it refuses rows that are empty, not square or not exactly
    symmetric, naming the row or the mirrored pair (from 1)."""

    RINGS = {
        "float": (float, operator.add, operator.mul, operator.truediv, 0.0),
        "int": (int, operator.add, operator.mul, exact_div, 0),
        "double-double": (
            lambda v: (float(v), 0.0), dd_add, dd_mul,
            lambda x, j: dd_div(x, (float(j), 0.0)), DD_ZERO,
        ),
        "SymExpr": (
            sym_const, sym_add, sym_mul, lambda e, j: sym_scale(e, Fraction(1, j)), {},
        ),
    }

    @pytest.mark.parametrize("ring", RINGS)
    def test_an_asymmetric_pair_is_named(self, ring):
        lift, add, mul, div, zero = self.RINGS[ring]
        rows = [[lift(v) for v in row] for row in ([1, 2, 0], [2, 1, 3], [0, 4, 1])]
        with pytest.raises(ValueError, match=r"^matrix is not symmetric: entries \(3, 2\) "
                                             r"and \(2, 3\) differ$"):
            symfunc.faddeev_leverrier(rows, add, mul, div, zero)
        rows[2][1] = lift(3)
        # det [[1, 2, 0], [2, 1, 3], [0, 3, 1]] = 1 (1 - 9) - 2 (2 - 0) = -12
        assert symfunc.faddeev_leverrier(rows, add, mul, div, zero)[-1] == lift(-12)

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("shape, message", [
        ([], r"^matrix dimension must be >= 1$"),
        ([[1, 2], [2]], r"^expected a square matrix, got 1 entries in row 2$"),
        ([[1, 2, 0], [2, 1]], r"^expected a square matrix, got 3 entries in row 1$"),
    ], ids=["empty", "short-row", "wide-rows"])
    def test_rows_that_are_not_square_are_refused(self, ring, shape, message):
        lift, add, mul, div, zero = self.RINGS[ring]
        rows = [[lift(v) for v in row] for row in shape]
        with pytest.raises(ValueError, match=message):
            symfunc.faddeev_leverrier(rows, add, mul, div, zero)


class TestFaddeevLeverrierZeroTest:
    """Over double-doubles the recursion skips the entries equal to the ring's
    zero, as the float run does: a (0.0, 0.0) entry is a truthy tuple, so
    truthiness would count it as nonzero."""

    def test_dd_run_skips_the_zeros_the_float_run_skips(self):
        from sigmak.solution import Point, SolutionParams, eval_jet

        p = SolutionParams(7, 2)
        pt = Point((0.5, -1.0, 2.0, 0.0, 1.5, -0.3), 0.7, (0.25, -0.5))
        floats = eval_jet(p, pt).hessian
        products = []

        def counted_product(x, y):
            products.append((x, y))
            return x * y

        by_float = symfunc.faddeev_leverrier(
            floats, operator.add, counted_product, operator.truediv, 0.0, count=p.k
        )
        dd_products = []

        def counted_mul(x, y):
            dd_products.append((x, y))
            return dd_mul(x, y)

        by_dd = symfunc.faddeev_leverrier(
            [[(v, 0.0) for v in row] for row in floats],
            dd_add, counted_mul, lambda x, j: dd_div(x, (float(j), 0.0)), DD_ZERO,
            count=p.k,
        )
        assert len(dd_products) == len(products) > 0
        fro = math.hypot(*(v for row in floats for v in row))
        for j, (x, y) in enumerate(zip(by_dd, by_float), start=1):
            assert abs(to_float(x) - y) <= 1e-13 * (1.0 + fro) ** j


class TestEigenvalues:
    def test_diagonal_sorted(self):
        spectrum = eigenvalues_symmetric(diagonal([3.0, 1.0, 2.0]))
        assert spectrum == pytest.approx((1.0, 2.0, 3.0))

    def test_reflection(self):
        spectrum = eigenvalues_symmetric([[0.0, 1.0], [1.0, 0.0]])
        assert spectrum == pytest.approx((-1.0, 1.0))

    def test_solution_hessian_spectrum(self):
        # D^2 u at x=(1,0), t=0 for the n=3 solution; its 2-minors sum to 1
        m = [[2.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 0.25]]
        spectrum = eigenvalues_symmetric(m)
        assert elementary_symmetric(spectrum)[1] == pytest.approx(1.0, abs=1e-12)

    def test_dim_one(self):
        spectrum = eigenvalues_symmetric([[7.0]])
        assert spectrum == (7.0,)

    def test_matches_numpy_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_symmetric(rng, rng.randrange(2, 9))
            mine = eigenvalues_symmetric(m)
            ref = np.linalg.eigvalsh(m)
            np.testing.assert_allclose(mine, ref, rtol=1e-9, atol=1e-9 * (1 + frobenius_norm(m)))


class TestCrossAlgorithmInvariants:
    def test_three_paths_agree(self):
        rng = random.Random(42)
        for _ in range(60):
            dim = rng.randrange(1, 9)
            m = random_symmetric(rng, dim)
            fro = frobenius_norm(m)
            spectrum = eigenvalues_symmetric(m)
            sv = charpoly_sigmas(m)
            by_eigs = elementary_symmetric(spectrum)
            for k in range(1, dim + 1):
                tol = 1e-8 * (1.0 + fro**k)
                by_eig = by_eigs[k - 1]
                by_minors = sigma_minors(m, k)
                assert abs(by_minors - by_eig) <= tol
                assert abs(sv[k - 1] - by_eig) <= tol
                assert abs(sv[k - 1] - by_minors) <= tol

    def test_orthogonal_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            dim = rng.randrange(2, 7)
            m = random_symmetric(rng, dim)
            rotated = rotate_exactly_symmetric(m, random_rotation(rng, dim))
            fro = frobenius_norm(m)
            for k in range(1, dim + 1):
                a = sigma_minors(m, k)
                b = sigma_minors(rotated, k)
                assert abs(a - b) <= 1e-8 * (1.0 + abs(a)) + 1e-12 * (1.0 + fro**k)

    def test_homogeneous_scaling(self):
        rng = random.Random(11)
        for _ in range(20):
            dim = rng.randrange(1, 7)
            m = random_symmetric(rng, dim, scale=2.0)
            c = rng.uniform(0.2, 3.0)
            scaled = c * np.array(m)
            sv = charpoly_sigmas(m)
            sv_scaled = charpoly_sigmas(scaled)
            for k in range(1, dim + 1):
                want = c**k * sv[k - 1]
                assert abs(sv_scaled[k - 1] - want) <= 1e-10 * (1.0 + abs(want))


class TestDoubleDoubleVariants:
    def test_dd_elementary_symmetric_exact(self):
        vals = [(v, 0.0) for v in (2.0, 2.0, -0.75)]
        out = [to_float(v) for v in dd_elementary_symmetric(vals)]
        assert out == [3.25, 1.0, -3.0]

    def test_dd_elementary_symmetric_matches_exact_recurrence(self):
        rng = random.Random(29)
        for _ in range(20):
            vals = [rng.uniform(-4.0, 4.0) for _ in range(rng.randrange(1, 9))]
            out = dd_elementary_symmetric([(v, 0.0) for v in vals])
            exact = elementary_symmetric([Fraction(v) for v in vals])
            for j, (got, want) in enumerate(zip(out, exact), start=1):
                assert abs(Fraction(got[0]) + Fraction(got[1]) - want) < 1e-25 * (1 + 4.0**j)

    def test_dd_recurrence_matches_the_constant_seeded_one_bit_for_bit(self):
        # the scan's reports are pinned across versions; the recurrence
        # seeded with e_1 = v_1 must round exactly like the textbook one
        # seeded with e_0 = 1, e_j = 0, including products by ONE
        rng = random.Random(47)
        for _ in range(500):
            vals = [dd_add(dd_mul((rng.uniform(-9, 9), 0.0), (rng.uniform(-9, 9), 0.0)),
                           (rng.uniform(-1e-17, 1e-17), 0.0)) for _ in range(rng.randrange(1, 12))]
            e = [DD_ONE] + [DD_ZERO] * len(vals)
            for i, v in enumerate(vals, start=1):
                for j in range(i, 0, -1):
                    e[j] = dd_add(e[j], dd_mul(v, e[j - 1]))
            assert dd_elementary_symmetric(vals) == e[1:]


class TestJacobiFailurePaths:
    """The float64 cyclic Jacobi raises on its two failures, naming them."""

    ROWS = ((2.0, 1.0, 0.5), (1.0, 3.0, -1.0), (0.5, -1.0, 1.0))

    def test_float_trace_check_is_wired(self, monkeypatch):
        monkeypatch.setattr(symfunc, "TRACE_REL_TOL", -1.0)
        with pytest.raises(ConvergenceError, match="float64 eigenvalue sum drifted from the trace"):
            eigenvalues_symmetric(self.ROWS)

    def test_float_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(symfunc, "JACOBI_MAX_SWEEPS", 0)
        m = self.ROWS
        with pytest.raises(ConvergenceError, match="float64 Jacobi did not converge in 0 sweeps") as info:
            eigenvalues_symmetric(m)
        norm = float(re.search(r"off-diagonal norm (\S+),", str(info.value))[1])
        assert norm > symfunc.JACOBI_REL_TOL * (1.0 + frobenius_norm(m))

    def test_diagonal_input_needs_no_sweep(self, monkeypatch):
        monkeypatch.setattr(symfunc, "JACOBI_MAX_SWEEPS", 0)
        assert eigenvalues_symmetric(diagonal([2.0, -1.0])) == (-1.0, 2.0)


class TestNearTracelessMatrices:
    def test_large_near_traceless_matrices_pass_the_trace_check(self):
        # the eigenvalue sum of a traceless matrix rounds to ~1e-16 * ||M||_F,
        # not to ~1e-16 * |trace|; a check relative to 1 + |trace| would
        # refuse about a quarter of these
        rng = random.Random(2024)
        for _ in range(300):
            dim = rng.randrange(2, 15)
            scale = 10.0 ** rng.uniform(0.0, 7.0)
            a = np.empty((dim, dim))
            for i in range(dim):
                for j in range(i, dim):
                    a[i, j] = a[j, i] = rng.uniform(-scale, scale)
            a[np.diag_indices(dim)] -= np.trace(a) / dim
            got = eigenvalues_symmetric(a)
            np.testing.assert_allclose(
                got, np.linalg.eigvalsh(a), rtol=0, atol=1e-12 * frobenius_norm(a)
            )
