import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import e_brute, random_symmetric, random_rotation, rotate_exactly_symmetric
from sigmak import doubledouble as dd
from sigmak import symfunc
from sigmak.errors import CapabilityError, ConvergenceError
from sigmak.symfunc import (
    SymmetricMatrix,
    eigenvalues_symmetric,
    eigenvalues_symmetric_dd,
    elementary_symmetric,
    sigma_all_via_charpoly,
    sigma_via_minors,
)


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
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not exactly symmetric"):
            SymmetricMatrix([[1.0, 2.0], [2.0000001, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])

    def test_dim_one(self):
        m = SymmetricMatrix([[4.0]])
        assert m.dim == 1 and m.trace() == 4.0

    def test_entries_are_readonly(self):
        m = SymmetricMatrix.identity(3)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_symmetrized_within_tolerance(self):
        m = SymmetricMatrix.symmetrized([[1.0, 2.0 + 1e-13], [2.0, 1.0]])
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_symmetrized_rejects_beyond_tolerance(self):
        with pytest.raises(ValueError, match="asymmetry"):
            SymmetricMatrix.symmetrized([[1.0, 2.1], [2.0, 1.0]])


class TestSigmaViaMinors:
    def test_identity_3x3(self):
        assert sigma_via_minors(SymmetricMatrix.identity(3), 2) == pytest.approx(3.0)

    def test_single_2x2_determinant(self):
        m = SymmetricMatrix([[2.0, 4.0], [4.0, 3.0]])
        assert sigma_via_minors(m, 2) == pytest.approx(-10.0)

    def test_matches_elementary_symmetric_on_diagonal(self):
        m = SymmetricMatrix.diagonal([1.0, 2.0, 3.0])
        assert sigma_via_minors(m, 2) == pytest.approx(11.0)

    def test_dimension_cap(self):
        with pytest.raises(CapabilityError, match="14"):
            sigma_via_minors(SymmetricMatrix.identity(15), 2)

    def test_k_out_of_range(self):
        m = SymmetricMatrix.identity(3)
        with pytest.raises(ValueError):
            sigma_via_minors(m, 0)
        with pytest.raises(ValueError):
            sigma_via_minors(m, 4)


class TestCharpoly:
    def test_diag_123(self):
        sv = sigma_all_via_charpoly(SymmetricMatrix.diagonal([1.0, 2.0, 3.0]))
        # (x-1)(x-2)(x-3) expanded
        assert sv.sigmas == pytest.approx((6.0, 11.0, 6.0))

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_identity_gives_binomials(self, n):
        sv = sigma_all_via_charpoly(SymmetricMatrix.identity(n))
        assert sv.sigmas == pytest.approx(tuple(math.comb(n, j) for j in range(1, n + 1)))

    def test_zero_matrix(self):
        sv = sigma_all_via_charpoly(SymmetricMatrix(np.zeros((4, 4))))
        assert sv.sigmas == (0.0, 0.0, 0.0, 0.0)

    def test_trace_and_det_invariants(self):
        m = SymmetricMatrix([[3.0, 1.0, 0.5], [1.0, -2.0, 2.0], [0.5, 2.0, 1.0]])
        sv = sigma_all_via_charpoly(m)
        tr = m.trace()
        assert abs(sv.sigma(1) - tr) <= 1e-10 * (1 + abs(tr))
        det = float(np.linalg.det(m.entries))
        assert abs(sv.sigma(3) - det) <= 1e-10 * (1 + abs(det))

    def test_sigma_accessor_bounds(self):
        sv = sigma_all_via_charpoly(SymmetricMatrix.identity(2))
        with pytest.raises(ValueError):
            sv.sigma(0)
        with pytest.raises(ValueError):
            sv.sigma(3)


class TestEigenvalues:
    def test_diagonal_sorted(self):
        spectrum = eigenvalues_symmetric(SymmetricMatrix.diagonal([3.0, 1.0, 2.0]))
        assert spectrum.values == pytest.approx((1.0, 2.0, 3.0))

    def test_reflection(self):
        spectrum = eigenvalues_symmetric(SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert spectrum.values == pytest.approx((-1.0, 1.0))

    def test_solution_hessian_spectrum(self):
        # D^2 u at x=(1,0), t=0 for the n=3 solution; its 2-minors sum to 1
        m = SymmetricMatrix([[2.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 0.25]])
        spectrum = eigenvalues_symmetric(m)
        assert elementary_symmetric(spectrum.values)[1] == pytest.approx(1.0, abs=1e-12)

    def test_dim_one(self):
        spectrum = eigenvalues_symmetric(SymmetricMatrix([[7.0]]))
        assert spectrum.values == (7.0,)

    def test_matches_numpy_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_symmetric(rng, rng.randrange(2, 9))
            mine = eigenvalues_symmetric(m).values
            ref = np.linalg.eigvalsh(m.entries)
            np.testing.assert_allclose(mine, ref, rtol=1e-9, atol=1e-9 * (1 + m.frobenius_norm()))


class TestCrossAlgorithmInvariants:
    def test_three_paths_agree(self):
        rng = random.Random(42)
        for _ in range(60):
            dim = rng.randrange(1, 9)
            m = random_symmetric(rng, dim)
            fro = m.frobenius_norm()
            spectrum = eigenvalues_symmetric(m)
            sv = sigma_all_via_charpoly(m)
            by_eigs = elementary_symmetric(spectrum.values)
            for k in range(1, dim + 1):
                tol = 1e-8 * (1.0 + fro**k)
                by_eig = by_eigs[k - 1]
                by_minors = sigma_via_minors(m, k)
                assert abs(by_minors - by_eig) <= tol
                assert abs(sv.sigma(k) - by_eig) <= tol
                assert abs(sv.sigma(k) - by_minors) <= tol

    def test_orthogonal_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            dim = rng.randrange(2, 7)
            m = random_symmetric(rng, dim)
            rotated = rotate_exactly_symmetric(m, random_rotation(rng, dim))
            fro = m.frobenius_norm()
            for k in range(1, dim + 1):
                a = sigma_via_minors(m, k)
                b = sigma_via_minors(rotated, k)
                assert abs(a - b) <= 1e-8 * (1.0 + abs(a)) + 1e-12 * (1.0 + fro**k)

    def test_homogeneous_scaling(self):
        rng = random.Random(11)
        for _ in range(20):
            dim = rng.randrange(1, 7)
            m = random_symmetric(rng, dim, scale=2.0)
            c = rng.uniform(0.2, 3.0)
            scaled = SymmetricMatrix(c * m.entries)
            sv = sigma_all_via_charpoly(m)
            sv_scaled = sigma_all_via_charpoly(scaled)
            for k in range(1, dim + 1):
                want = c**k * sv.sigma(k)
                assert abs(sv_scaled.sigma(k) - want) <= 1e-10 * (1.0 + abs(want))


class TestDoubleDoubleVariants:
    def test_dd_eigenvalues_on_diagonal(self):
        entries = [[dd.from_float(0.0)] * 3 for _ in range(3)]
        for i, v in enumerate([3.0, 1.0, 2.0]):
            entries[i][i] = dd.from_float(v)
        lam = eigenvalues_symmetric_dd(entries)
        assert [dd.to_float(v) for v in lam] == [1.0, 2.0, 3.0]

    def test_dd_eigenvalues_match_float_path(self):
        rng = random.Random(13)
        for _ in range(10):
            m = random_symmetric(rng, rng.randrange(2, 6))
            entries = [[dd.from_float(v) for v in row] for row in m.to_lists()]
            lam = [dd.to_float(v) for v in eigenvalues_symmetric_dd(entries)]
            ref = eigenvalues_symmetric(m).values
            np.testing.assert_allclose(lam, ref, rtol=1e-10, atol=1e-10 * (1 + m.frobenius_norm()))

    def test_dd_elementary_symmetric_exact(self):
        vals = [dd.from_float(v) for v in (2.0, 2.0, -0.75)]
        out = [dd.to_float(v) for v in elementary_symmetric(vals, dd.add, dd.mul)]
        assert out == [3.25, 1.0, -3.0]

    def test_dd_elementary_symmetric_matches_exact_recurrence(self):
        rng = random.Random(29)
        for _ in range(20):
            vals = [rng.uniform(-4.0, 4.0) for _ in range(rng.randrange(1, 9))]
            out = elementary_symmetric([dd.from_float(v) for v in vals], dd.add, dd.mul)
            exact = elementary_symmetric([Fraction(v) for v in vals])
            for j, (got, want) in enumerate(zip(out, exact), start=1):
                assert abs(Fraction(got[0]) + Fraction(got[1]) - want) < 1e-25 * (1 + 4.0**j)

    def test_dd_recurrence_matches_the_constant_seeded_one_bit_for_bit(self):
        # the scan's reports are pinned across versions; the recurrence
        # seeded with e_1 = v_1 must round exactly like the textbook one
        # seeded with e_0 = 1, e_j = 0, including products by ONE
        rng = random.Random(47)
        for _ in range(500):
            vals = [dd.add_f(dd.from_product(rng.uniform(-9, 9), rng.uniform(-9, 9)),
                             rng.uniform(-1e-17, 1e-17)) for _ in range(rng.randrange(1, 12))]
            e = [dd.ONE] + [dd.ZERO] * len(vals)
            for i, v in enumerate(vals, start=1):
                for j in range(i, 0, -1):
                    e[j] = dd.add(e[j], dd.mul(v, e[j - 1]))
            assert elementary_symmetric(vals, dd.add, dd.mul) == e[1:]

    def test_dd_trace_check_is_wired(self, monkeypatch):
        from sigmak import symfunc

        monkeypatch.setattr(symfunc, "DD_TRACE_REL_TOL", -1.0)
        entries = [[dd.from_float(v) for v in row] for row in ((2.0, 1.0), (1.0, 3.0))]
        with pytest.raises(ConvergenceError, match="drifted from the trace"):
            eigenvalues_symmetric_dd(entries)


class TestJacobiFailurePaths:
    """Both arithmetics of the one cyclic Jacobi raise on the same failures."""

    ROWS = ((2.0, 1.0, 0.5), (1.0, 3.0, -1.0), (0.5, -1.0, 1.0))

    def test_float_trace_check_is_wired(self, monkeypatch):
        monkeypatch.setattr(symfunc, "TRACE_REL_TOL", -1.0)
        with pytest.raises(ConvergenceError, match="float64 eigenvalue sum drifted from the trace"):
            eigenvalues_symmetric(SymmetricMatrix(self.ROWS))

    def test_float_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(symfunc, "JACOBI_MAX_SWEEPS", 0)
        m = SymmetricMatrix(self.ROWS)
        with pytest.raises(ConvergenceError, match="float64 Jacobi did not converge in 0 sweeps") as info:
            eigenvalues_symmetric(m)
        assert info.value.offdiag_norm > symfunc.JACOBI_REL_TOL * (1.0 + m.frobenius_norm())

    def test_dd_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(symfunc, "JACOBI_MAX_SWEEPS", 0)
        entries = [[dd.from_float(v) for v in row] for row in self.ROWS]
        fro = SymmetricMatrix(self.ROWS).frobenius_norm()
        with pytest.raises(ConvergenceError, match="double-double Jacobi did not converge in 0 sweeps") as info:
            eigenvalues_symmetric_dd(entries)
        assert info.value.offdiag_norm > symfunc.DD_JACOBI_REL_TOL * (1.0 + fro)

    def test_diagonal_input_needs_no_sweep(self, monkeypatch):
        monkeypatch.setattr(symfunc, "JACOBI_MAX_SWEEPS", 0)
        assert eigenvalues_symmetric(SymmetricMatrix.diagonal([2.0, -1.0])).values == (-1.0, 2.0)


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
            m = SymmetricMatrix(a)
            got = eigenvalues_symmetric(m).values
            np.testing.assert_allclose(
                got, np.linalg.eigvalsh(a), rtol=0, atol=1e-12 * m.frobenius_norm()
            )
