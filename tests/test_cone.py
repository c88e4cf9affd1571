import random

import numpy as np
import pytest

from conftest import (
    charpoly_sigmas,
    diagonal,
    e_brute,
    frobenius_norm,
    random_rotation,
    rotate_exactly_symmetric,
    sigma_minors,
)
from sigmak.cone import (
    ConeVerdict,
    cone_flags,
    gamma_k,
)
from sigmak.symfunc import eigenvalues_symmetric


class TestSigmaPositivity:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_identity_in_cone(self, k):
        verdict = gamma_k(diagonal([1.0] * 4), k)
        assert verdict.in_cone
        assert verdict.negative_count == 0

    def test_solution_hessian_at_origin(self):
        verdict = gamma_k(diagonal([2.0, 2.0, -0.75]), 2)
        assert verdict.in_cone
        assert verdict.sigmas[0] == pytest.approx(3.25)
        assert verdict.sigmas[1] == pytest.approx(1.0)

    def test_negative_sigma2_rejected(self):
        verdict = gamma_k(diagonal([-1.0, -1.0, 5.0]), 2)
        assert not verdict.in_cone
        assert verdict.sigmas[0] == pytest.approx(3.0)
        assert verdict.sigmas[1] == pytest.approx(-9.0)

    def test_boundary_counts_as_outside(self):
        # sigma_1 = 0 exactly: not in the open cone
        verdict = gamma_k(diagonal([1.0, -1.0]), 1)
        assert not verdict.in_cone

    def test_k_out_of_range(self, monkeypatch):
        # refused before the Jacobi runs; a bool or a float is not a k
        from sigmak import cone

        monkeypatch.setattr(cone, "eigenvalues_symmetric", None)
        for k in (0, 3, True, 2.0):
            with pytest.raises(ValueError, match=rf"^k must be in 1\.\.2, got {k}$"):
                gamma_k(diagonal([1.0] * 2), k)


class TestGammaKInput:
    """gamma_k refuses the float rows that eigenvalues_symmetric refuses."""

    @pytest.mark.parametrize("rows, message", [
        ([], r"^matrix dimension must be >= 1$"),
        ([[1.0, 0.0], [0.0]], r"^expected a square matrix, got 1 entries in row 2$"),
        ([[1.0, 0.0], [float("nan"), 1.0]], r"^matrix entry nan at row 2, column 1 is not finite$"),
        ([[1.0, 0.5], [0.0, 1.0]], r"^matrix is not symmetric: entries \(2, 1\) and \(1, 2\) differ$"),
    ], ids=["empty", "short-row", "non-finite", "asymmetric"])
    def test_bad_rows_are_named(self, rows, message):
        with pytest.raises(ValueError, match=message):
            gamma_k(rows, 1)


class TestLemmaCheck:
    def test_one_negative_eigenvalue_accepted(self):
        verdict = gamma_k(diagonal([2.0, 2.0, -0.75]), 2)
        assert verdict.lemma
        assert verdict.negative_count == 1

    def test_positive_definite_accepted(self):
        verdict = gamma_k(diagonal([1.0] * 3), 3)
        assert verdict.lemma
        assert verdict.negative_count == 0

    def test_two_negatives_rejected(self):
        verdict = gamma_k(diagonal([-1.0, -2.0, 10.0]), 2)
        assert not verdict.lemma
        assert verdict.negative_count == 2

    def test_verdict_invariant_enforced(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            ConeVerdict(sigmas=(1.0, 1.0, 1.0), negative_count=2, in_cone=True, lemma=True)


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
                diagonal(lams), random_rotation(rng, dim)
            )
            verdict = gamma_k(m, k)
            assert verdict.lemma, (lams, k)
            assert verdict.in_cone, (lams, k)

    def test_positive_definite_in_every_cone(self):
        rng = random.Random(5)
        for _ in range(50):
            dim = rng.randrange(1, 7)
            lams = [rng.uniform(0.1, 4.0) for _ in range(dim)]
            m = rotate_exactly_symmetric(
                diagonal(lams), random_rotation(rng, dim)
            )
            for k in range(1, dim + 1):
                verdict = gamma_k(m, k)
                assert verdict.in_cone
                assert verdict.lemma


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
        m = tuple(map(tuple, a.tolist()))
        fro = frobenius_norm(m)
        tols = [1e-8 * (1.0 + fro**j) for j in range(1, dim + 1)]
        charpoly = charpoly_sigmas(m)
        minors = [sigma_minors(m, j) for j in range(1, dim + 1)]
        decided = all(abs(c) > tol for c, tol in zip(charpoly, tols))
        values = eigenvalues_symmetric(m)
        for k in range(1, dim + 1):
            verdict = gamma_k(m, k)
            for got, c, mn, tol in zip(verdict.sigmas, charpoly, minors, tols):
                assert abs(got - c) <= tol and abs(got - mn) <= tol
            if decided:
                assert (verdict.negative_count, verdict.in_cone, verdict.lemma) == (
                    cone_flags(values, charpoly, k)
                )


class TestNegativeCount:
    def test_threshold_is_scale_aware(self):
        # a numerically-zero eigenvalue is not negative
        assert cone_flags([-1e-14, 2.0], [2.0, 0.0], 1)[0] == 0
        assert cone_flags([-0.5, 2.0], [1.5, -1.0], 1)[0] == 1


class TestConeFlagsInput:
    def test_reads_only_sigma_1_to_k(self):
        # the scan passes exactly sigma_1..sigma_k; gamma_k passes all n
        assert cone_flags([1.0, 2.0, 3.0], [6.0, 11.0], 2) == (0, True, True)
        assert cone_flags([1.0, 2.0, 3.0], [6.0, 11.0, -1.0], 2) == (0, True, True)
