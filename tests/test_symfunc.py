import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import e_brute, random_symmetric, random_rotation, rotate_exactly_symmetric
from sigmak import doubledouble as dd
from sigmak.errors import CapabilityError, ConvergenceError
from sigmak.symfunc import (
    SymmetricMatrix,
    eigenvalues_symmetric,
    eigenvalues_symmetric_dd,
    elementary_symmetric,
    elementary_symmetric_dd,
    sigma_all_via_charpoly,
    sigma_via_minors,
)


class TestElementarySymmetric:
    def test_e0_is_one(self):
        assert elementary_symmetric([3.0, -1.0, 7.5], 0) == 1
        assert elementary_symmetric([], 0) == 1

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (8, 8)])
    def test_all_ones_gives_binomial(self, n, k):
        assert elementary_symmetric([1] * n, k) == math.comb(n, k)

    def test_pairs_of_123(self):
        # 1*2 + 1*3 + 2*3
        assert elementary_symmetric([1, 2, 3], 2) == 11
        assert e_brute([1, 2, 3], 2) == 11

    def test_exact_on_rationals(self):
        # spectrum of the n=5 solution Hessian at the origin
        vals = [2, 2, 2, 2, Fraction(-31, 24)]
        assert elementary_symmetric(vals, 3) == 1
        assert e_brute(vals, 3) == 1

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            elementary_symmetric([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            elementary_symmetric([1.0, 2.0], -1)

    def test_matches_brute_force_on_random_input(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randrange(1, 9)
            vals = [rng.uniform(-4, 4) for _ in range(n)]
            for k in range(n + 1):
                got = elementary_symmetric(vals, k)
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
        ek_tail = elementary_symmetric(tail, k) if k <= len(tail) else 0
        lhs = elementary_symmetric(vals, k) - ek_tail
        assert lhs == vals[0] * elementary_symmetric(tail, k - 1)


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
        assert elementary_symmetric(spectrum.values, 2) == pytest.approx(1.0, abs=1e-12)

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
            for k in range(1, dim + 1):
                tol = 1e-8 * (1.0 + fro**k)
                by_eig = elementary_symmetric(spectrum.values, k)
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
        out = [dd.to_float(v) for v in elementary_symmetric_dd(vals)]
        assert out == [3.25, 1.0, -3.0]

    def test_dd_elementary_symmetric_matches_exact_recurrence(self):
        rng = random.Random(29)
        for _ in range(20):
            vals = [rng.uniform(-4.0, 4.0) for _ in range(rng.randrange(1, 9))]
            out = elementary_symmetric_dd([dd.from_float(v) for v in vals])
            exact = [Fraction(v) for v in vals]
            for j, got in enumerate(out, start=1):
                want = elementary_symmetric(exact, j)
                assert abs(Fraction(got[0]) + Fraction(got[1]) - want) < 1e-25 * (1 + 4.0**j)

    def test_dd_trace_check_is_wired(self, monkeypatch):
        from sigmak import symfunc

        monkeypatch.setattr(symfunc, "DD_TRACE_REL_TOL", -1.0)
        entries = [[dd.from_float(v) for v in row] for row in ((2.0, 1.0), (1.0, 3.0))]
        with pytest.raises(ConvergenceError, match="drifted from the trace"):
            eigenvalues_symmetric_dd(entries)
