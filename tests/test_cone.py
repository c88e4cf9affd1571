import random

import numpy as np
import pytest

from conftest import e_brute, random_rotation, rotate_exactly_symmetric
from sigmak.cone import (
    ConeVerdict,
    METHOD_LEMMA,
    cone_verdicts,
    count_negative_eigenvalues,
    deformation_monotonicity_check,
    gamma_k,
)
from sigmak.symfunc import (
    SigmaVector,
    SymmetricMatrix,
    eigenvalues_symmetric,
    sigma_all_via_charpoly,
    sigma_via_minors,
)


class TestSigmaPositivity:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_identity_in_cone(self, k):
        verdict = gamma_k(SymmetricMatrix.identity(4), k)[0]
        assert verdict.in_cone
        assert verdict.negative_count == 0

    def test_solution_hessian_at_origin(self):
        verdict = gamma_k(SymmetricMatrix.diagonal([2.0, 2.0, -0.75]), 2)[0]
        assert verdict.in_cone
        assert verdict.sigmas.sigma(1) == pytest.approx(3.25)
        assert verdict.sigmas.sigma(2) == pytest.approx(1.0)

    def test_negative_sigma2_rejected(self):
        verdict = gamma_k(SymmetricMatrix.diagonal([-1.0, -1.0, 5.0]), 2)[0]
        assert not verdict.in_cone
        assert verdict.sigmas.sigma(1) == pytest.approx(3.0)
        assert verdict.sigmas.sigma(2) == pytest.approx(-9.0)

    def test_boundary_counts_as_outside(self):
        # sigma_1 = 0 exactly: not in the open cone
        verdict = gamma_k(SymmetricMatrix.diagonal([1.0, -1.0]), 1)[0]
        assert not verdict.in_cone

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            gamma_k(SymmetricMatrix.identity(2), 3)


class TestLemmaCheck:
    def test_one_negative_eigenvalue_accepted(self):
        verdict = gamma_k(SymmetricMatrix.diagonal([2.0, 2.0, -0.75]), 2)[1]
        assert verdict.in_cone
        assert verdict.negative_count == 1

    def test_positive_definite_accepted(self):
        verdict = gamma_k(SymmetricMatrix.identity(3), 3)[1]
        assert verdict.in_cone
        assert verdict.negative_count == 0

    def test_two_negatives_rejected(self):
        verdict = gamma_k(SymmetricMatrix.diagonal([-1.0, -2.0, 10.0]), 2)[1]
        assert not verdict.in_cone
        assert verdict.negative_count == 2

    def test_verdict_invariant_enforced(self):
        sv = SigmaVector(sigmas=(1.0, 1.0, 1.0), n=3)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            ConeVerdict(in_cone=True, sigmas=sv, negative_count=2, method=METHOD_LEMMA)

    def test_unknown_method_rejected(self):
        sv = SigmaVector(sigmas=(1.0,), n=1)
        with pytest.raises(ValueError, match="method"):
            ConeVerdict(in_cone=True, sigmas=sv, negative_count=0, method="guess")


class TestLemmaSoundness:
    def test_lemma_implies_sigma_positivity(self):
        # sample of the acceptance-scale property: whenever the lemma's
        # hypotheses hold, the defining characterization must agree
        rng = random.Random(2024)
        accepted = 0
        while accepted < 1000:
            dim = rng.randrange(2, 9)
            lams = [rng.uniform(-3.0, 3.0)] + [rng.uniform(0.0, 3.0) for _ in range(dim - 1)]
            k = rng.randrange(1, dim + 1)
            fro = sum(v * v for v in lams) ** 0.5
            if e_brute(lams, k) <= 1e-8 * (1.0 + fro**k):
                continue
            accepted += 1
            m = rotate_exactly_symmetric(
                SymmetricMatrix.diagonal(lams), random_rotation(rng, dim)
            )
            by_sigma, by_lemma = gamma_k(m, k)
            assert by_lemma.in_cone, (lams, k)
            assert by_sigma.in_cone, (lams, k)

    def test_positive_definite_in_every_cone(self):
        rng = random.Random(5)
        for _ in range(50):
            dim = rng.randrange(1, 7)
            lams = [rng.uniform(0.1, 4.0) for _ in range(dim)]
            m = rotate_exactly_symmetric(
                SymmetricMatrix.diagonal(lams), random_rotation(rng, dim)
            )
            for k in range(1, dim + 1):
                by_sigma, by_lemma = gamma_k(m, k)
                assert by_sigma.in_cone
                assert by_lemma.in_cone


class TestCharpolyOracleParity:
    """gamma_k takes its sigmas from the Jacobi eigenvalues; the float
    characteristic polynomial and the principal-minor sums check them."""

    @pytest.mark.parametrize("dim", range(1, 15))
    @pytest.mark.parametrize("definite", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gamma_k_matches_the_charpoly_verdicts(self, dim, definite, seed):
        # half of the matrices shifted to positive definite; the verdicts
        # are compared only where every charpoly sigma_j is resolvably nonzero
        rng = np.random.default_rng([dim, definite, seed])
        g = rng.uniform(-1.0, 1.0, (dim, dim))
        a = (g + g.T) / 2.0
        if definite:
            shift = max(0.0, -float(np.linalg.eigvalsh(a)[0]))
            a = a + (shift + float(rng.uniform(0.05, 1.0))) * np.eye(dim)
        m = SymmetricMatrix(a)
        fro = m.frobenius_norm()
        tols = [1e-8 * (1.0 + fro**j) for j in range(1, dim + 1)]
        charpoly = sigma_all_via_charpoly(m).sigmas
        minors = [sigma_via_minors(m, j) for j in range(1, dim + 1)]
        decided = all(abs(c) > tol for c, tol in zip(charpoly, tols))
        values = eigenvalues_symmetric(m).values
        for k in range(1, dim + 1):
            verdicts = gamma_k(m, k)
            sigmas = verdicts[0].sigmas.sigmas
            for got, c, mn, tol in zip(sigmas, charpoly, minors, tols):
                assert abs(got - c) <= tol and abs(got - mn) <= tol
            if decided:
                by_charpoly = cone_verdicts(values, charpoly, k)
                assert [v.in_cone for v in verdicts] == [v.in_cone for v in by_charpoly]
                assert [v.negative_count for v in verdicts] == [
                    v.negative_count for v in by_charpoly
                ]


class TestNegativeCount:
    def test_threshold_is_scale_aware(self):
        # a numerically-zero eigenvalue is not negative
        assert count_negative_eigenvalues([-1e-14, 2.0], 2.0) == 0
        assert count_negative_eigenvalues([-0.5, 2.0], 2.0) == 1


class TestDeformationMonotonicity:
    def test_solution_spectrum_at_origin(self):
        assert deformation_monotonicity_check([-0.75, 2.0, 2.0], 2, [0.0, 1.0, 2.0, 3.0])

    def test_all_zeros(self):
        assert deformation_monotonicity_check([0.0, 0.0, 0.0], 2, [0.0, 0.5, 1.0])

    def test_e1_is_the_sum(self):
        assert deformation_monotonicity_check([-1.0, 1.0], 1, [0.0, 2.0])

    def test_grid_values_are_affine(self):
        # e_2(-3/4 + s, 2, 2) = 1, 5, 9, 13 on s = 0..3
        vals = [e_brute([-0.75 + s, 2.0, 2.0], 2) for s in range(4)]
        assert vals == [1.0, 5.0, 9.0, 13.0]

    def test_rejects_second_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            deformation_monotonicity_check([-1.0, -0.5, 2.0], 2, [0.0, 1.0])

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError, match="grid"):
            deformation_monotonicity_check([-1.0, 2.0], 1, [-1.0, 0.0])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            deformation_monotonicity_check([1.0, 2.0], 3, [0.0, 1.0])
