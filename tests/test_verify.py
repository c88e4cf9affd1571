import dataclasses
import math

import numpy as np
import pytest

from sigmak.errors import CapabilityError
from sigmak.solution import Point, SolutionParams, derive_constants, dd_terms, eval_jet, h_eval
from sigmak.symfunc import SymmetricMatrix
from sigmak.verify import (
    CRITICAL_PHASE_N3,
    SampleBox,
    central_hessian,
    fd_hessian,
    iterated_forward_difference,
    nonpoly_witness,
    residual_scan,
    sample_point,
    sl_phase,
    splitmix64,
)

P3 = derive_constants(3)
BOX = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=1000, seed=42)


class TestGenerator:
    def test_splitmix_reference_words(self):
        # recompute the documented mix inline as the oracle
        def reference(seed, c):
            mask = (1 << 64) - 1
            z = (seed + (c + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return (z ^ (z >> 31)) & mask

        for seed in (0, 42, 2**64 - 1):
            for c in (0, 1, 2, 1000):
                assert splitmix64(seed, c) == reference(seed, c)

    def test_splitmix_frozen_words(self):
        # stream words another implementation must reproduce exactly
        # (seed 0, counter 0 is the canonical first splitmix64 output)
        assert splitmix64(0, 0) == 16294208416658607535
        assert splitmix64(0, 1) == 7960286522194355700
        assert splitmix64(42, 0) == 13679457532755275413
        assert splitmix64(42, 1) == 2949826092126892291
        assert splitmix64(2**64 - 1, 0) == 16490336266968443936
        assert splitmix64(12345, 678) == 9761773455441598619

    def test_words_are_64_bit(self):
        for c in range(50):
            assert 0 <= splitmix64(7, c) < 2**64

    def test_points_respect_the_box(self):
        for i in range(200):
            pt = sample_point(P3, BOX, i)
            assert all(abs(v) <= 3.0 for v in pt.x)
            assert -2.0 <= pt.t <= 2.0

    def test_same_seed_same_points(self):
        assert sample_point(P3, BOX, 17) == sample_point(P3, BOX, 17)

    def test_different_seed_different_points(self):
        other = dataclasses.replace(BOX, seed=43)
        assert sample_point(P3, BOX, 17) != sample_point(P3, other, 17)

    def test_w_coordinates_consume_stream_words(self):
        p = SolutionParams(3, 2)
        pt = sample_point(p, BOX, 3)
        assert len(pt.w) == 2
        assert all(abs(v) <= BOX.x_radius for v in pt.w)


class TestSampleBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleBox(x_radius=0.0, t_range=(-1.0, 1.0), count=10, seed=0)
        with pytest.raises(ValueError):
            SampleBox(x_radius=1.0, t_range=(1.0, -1.0), count=10, seed=0)
        with pytest.raises(ValueError):
            SampleBox(x_radius=1.0, t_range=(-1.0, 1.0), count=0, seed=0)
        with pytest.raises(ValueError):
            SampleBox(x_radius=1.0, t_range=(-1.0, 1.0), count=10, seed=-1)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"x_radius": math.inf}, "x_radius"),
            ({"x_radius": math.nan}, "x_radius"),
            ({"t_range": (-math.inf, 1.0)}, "t_range"),
            ({"t_range": (-1.0, math.nan)}, "t_range"),
        ],
    )
    def test_non_finite_rejected(self, kwargs, field):
        fields = {"x_radius": 1.0, "t_range": (-1.0, 1.0), "count": 10, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SampleBox(**fields)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"count": 2.5}, "count"),
            ({"count": 10.0}, "count"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "0"}, "seed"),
        ],
    )
    def test_non_integer_rejected(self, kwargs, field):
        fields = {"x_radius": 1.0, "t_range": (-1.0, 1.0), "count": 10, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SampleBox(**fields)


class TestResidualScan:
    def test_n3_standard_box(self):
        rep = residual_scan(P3, BOX)
        assert rep.max_abs_residual <= 1e-10
        assert rep.cone_failures == 0
        assert rep.lemma_failures == 0
        assert rep.phase_ok is True
        assert rep.min_sigma_j > 0.0

    def test_n5_standard_box(self):
        rep = residual_scan(derive_constants(5), dataclasses.replace(BOX, count=400))
        assert rep.max_abs_residual <= 1e-9
        assert rep.cone_failures == 0
        assert rep.phase_ok is None

    def test_extended_solution_on_r5(self):
        p = SolutionParams(3, 2)
        box = dataclasses.replace(BOX, count=300)
        rep = residual_scan(p, box)
        assert rep.max_abs_residual <= 1e-9
        assert rep.cone_failures == 0
        assert rep.phase_ok is None  # phase is specific to the core n=3 case

    def test_deterministic_reports(self):
        a = residual_scan(P3, dataclasses.replace(BOX, count=200))
        b = residual_scan(P3, dataclasses.replace(BOX, count=200))
        assert a == b

    def test_overflow_guard_on_t_range(self):
        box = SampleBox(x_radius=1.0, t_range=(-800.0, 800.0), count=10, seed=0)
        with pytest.raises(OverflowError):
            residual_scan(P3, box)

    def test_radius_guard(self):
        with pytest.raises(OverflowError, match="x_radius = 1e\\+160"):
            residual_scan(P3, dataclasses.replace(BOX, x_radius=1e160, count=1))
        with pytest.raises(OverflowError, match=r"t_range = \(-400.0, 2.0\)"):
            residual_scan(P3, dataclasses.replace(BOX, t_range=(-400.0, 2.0), count=1))

    @pytest.mark.parametrize("n, x_radius", [(3, 2e49), (11, 4e12)])
    def test_scan_stays_finite_just_inside_the_radius_guard(self, n, x_radius):
        box = SampleBox(x_radius=x_radius, t_range=(-2.0, 2.0), count=20, seed=5)
        rep = residual_scan(derive_constants(n), box)
        assert math.isfinite(rep.max_abs_residual)
        assert math.isfinite(rep.min_sigma_j)

    def test_convergence_error_names_the_sample(self, monkeypatch):
        from sigmak import symfunc
        from sigmak.errors import ConvergenceError

        monkeypatch.setattr(symfunc, "DD_TRACE_REL_TOL", -1.0)
        first = sample_point(P3, BOX, 0)
        with pytest.raises(ConvergenceError, match="drifted from the trace") as info:
            residual_scan(P3, dataclasses.replace(BOX, count=3))
        assert str(info.value).startswith(f"sample 0 at {first}: ")

    def test_unconverged_jacobi_names_the_sample(self, monkeypatch):
        from sigmak import symfunc
        from sigmak.errors import ConvergenceError

        monkeypatch.setattr(symfunc, "JACOBI_MAX_SWEEPS", 0)
        first = sample_point(P3, BOX, 0)
        with pytest.raises(ConvergenceError, match="double-double Jacobi did not converge") as info:
            residual_scan(P3, dataclasses.replace(BOX, count=3))
        assert str(info.value).startswith(f"sample 0 at {first}: ")
        assert info.value.offdiag_norm > 0.0

    def test_argmax_point_is_reproducible(self):
        rep = residual_scan(P3, dataclasses.replace(BOX, count=200))
        again = residual_scan(P3, dataclasses.replace(BOX, count=200))
        assert rep.argmax_point == again.argmax_point


class TestSpectrumAudit:
    """The scan's closed-form spectrum is checked by the general dd Jacobi on
    every MINOR_AUDIT_STRIDE-th sample, in any dimension."""

    @staticmethod
    def shifted_spectrum(monkeypatch, first_shifted, rel_shift):
        # from call number first_shifted on, move the largest eigenvalue by
        # rel_shift * (1 + ||M||_F), and return the sigmas of the moved
        # spectrum, as a closed form with that eigenvalue wrong throughout
        from sigmak import doubledouble as dd
        from sigmak import verify
        from sigmak.symfunc import elementary_symmetric

        calls = []
        exact = verify.spectrum_sigmas_dd

        def shifted(p, terms):
            lam, sigmas = exact(p, terms)
            if len(calls) >= first_shifted:
                fro = math.sqrt(sum(dd.to_float(v) ** 2 for v in lam))
                lam[-1] = dd.add_f(lam[-1], rel_shift * (1.0 + fro))
                sigmas = elementary_symmetric(lam, dd.add, dd.mul)[: p.k]
            calls.append(terms)
            return lam, sigmas

        monkeypatch.setattr(verify, "spectrum_sigmas_dd", shifted)

    @pytest.mark.parametrize("first_shifted", [0, 100])
    def test_a_wrong_eigenvalue_names_the_sample(self, monkeypatch, first_shifted):
        from sigmak.errors import ConvergenceError

        self.shifted_spectrum(monkeypatch, first_shifted, 1e-20)
        named = sample_point(P3, BOX, first_shifted)
        with pytest.raises(ConvergenceError, match="closed-form spectrum disagrees") as info:
            residual_scan(P3, dataclasses.replace(BOX, count=250))
        assert str(info.value).startswith(f"sample {first_shifted} at {named}: ")

    def test_a_shift_within_the_tolerance_passes(self, monkeypatch):
        from sigmak.verify import SPECTRUM_AUDIT_REL_TOL

        self.shifted_spectrum(monkeypatch, 0, SPECTRUM_AUDIT_REL_TOL / 10.0)
        rep = residual_scan(P3, dataclasses.replace(BOX, count=250))
        assert rep.cone_failures == 0

    @staticmethod
    def count_calls(monkeypatch, name):
        from sigmak import verify

        calls = []
        original = getattr(verify, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(verify, name, counted)
        return calls

    def test_one_jacobi_per_hundred_samples(self, monkeypatch):
        jacobi = self.count_calls(monkeypatch, "eigenvalues_symmetric_dd")
        hessians = self.count_calls(monkeypatch, "hessian_dd")
        residual_scan(P3, BOX)
        assert BOX.count == 1000
        assert (len(jacobi), len(hessians)) == (10, 10)

    def test_one_exponential_per_sample(self, monkeypatch):
        # dd_terms takes e^(-(k-1)t) from e^t, and the 10 audited samples'
        # hessian_dd reads the same terms; a second dd.exp per sample would
        # make 2000, one per audited Hessian 1010
        from sigmak import doubledouble as dd

        calls = []
        exp = dd.exp

        def counting_exp(x):
            calls.append(x)
            return exp(x)

        monkeypatch.setattr(dd, "exp", counting_exp)
        residual_scan(P3, BOX)
        assert BOX.count == 1000
        assert len(calls) == 1000

    @pytest.mark.parametrize("n, m", [(3, 0), (7, 0), (5, 2)])
    def test_a_wrong_binomial_names_the_sample(self, monkeypatch, n, m):
        from sigmak import doubledouble as dd
        from sigmak.errors import ConvergenceError

        p = SolutionParams(n, m)
        binomials = list(p.arrow_binomials_dd)
        binomials[p.k - 1] = dd.add_f(binomials[p.k - 1], 1.0)
        object.__setattr__(p, "arrow_binomials_dd", tuple(binomials))
        with pytest.raises(ConvergenceError, match="structured sigma_") as info:
            residual_scan(p, dataclasses.replace(BOX, count=3))
        assert str(info.value).startswith(f"sample 0 at {sample_point(p, BOX, 0)}: ")

    @pytest.mark.parametrize("first_perturbed", [0, 100])
    def test_a_perturbed_determinant_names_the_sample(self, monkeypatch, first_perturbed):
        # det moved by 1e-20 relative in the sigmas only, not in the roots
        from sigmak import doubledouble as dd
        from sigmak import solution
        from sigmak.errors import ConvergenceError

        calls = []
        exact = solution.arrow_sigmas

        def perturbed(binomials, powers, tr, det):
            if len(calls) >= first_perturbed:
                det = dd.mul(det, (1.0, 1e-20))
            calls.append(det)
            return exact(binomials, powers, tr, det)

        monkeypatch.setattr(solution, "arrow_sigmas", perturbed)
        p = derive_constants(7)
        named = sample_point(p, BOX, first_perturbed)
        with pytest.raises(ConvergenceError, match="structured sigma_2 disagrees") as info:
            residual_scan(p, dataclasses.replace(BOX, count=250))
        assert str(info.value).startswith(f"sample {first_perturbed} at {named}: ")

    def test_audit_runs_past_the_minor_limit(self, monkeypatch):
        from sigmak.symfunc import MINOR_DIM_LIMIT

        p = derive_constants(15)
        assert p.total_dim > MINOR_DIM_LIMIT
        jacobi = self.count_calls(monkeypatch, "eigenvalues_symmetric_dd")
        minors = self.count_calls(monkeypatch, "sigma_via_minors")
        residual_scan(p, dataclasses.replace(BOX, count=101))
        assert (len(jacobi), len(minors)) == (2, 0)


class TestResidualAgainstExactArithmetic:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_dd_residual_equals_exact_rational_residual(self, n):
        # every double-double Hessian entry is the exact rational hi + lo, so
        # exact Fraction minors give the true sigma_k of the same matrix; the
        # reported residual must match it, not merely be small
        from fractions import Fraction
        from itertools import combinations, permutations

        from sigmak import doubledouble as dd
        from sigmak.solution import hessian_dd
        from sigmak.symfunc import eigenvalues_symmetric_dd, elementary_symmetric

        def exact_sigma(hdd, k):
            dim = len(hdd)
            exact = [[Fraction(e[0]) + Fraction(e[1]) for e in row] for row in hdd]
            total = Fraction(0)
            for idx in combinations(range(dim), k):
                sub = [[exact[i][j] for j in idx] for i in idx]
                for perm in permutations(range(k)):
                    prod = Fraction(1)
                    zero = False
                    for r, c in enumerate(perm):
                        if sub[r][c] == 0:
                            zero = True
                            break
                        prod *= sub[r][c]
                    if zero:
                        continue
                    inv = sum(
                        1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
                    )
                    total += -prod if inv % 2 else prod
            return total

        p = derive_constants(n)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=5, seed=77)
        for i in range(5):
            pt = sample_point(p, box, i)
            hdd = hessian_dd(p, pt, dd_terms(p, pt))
            lam = eigenvalues_symmetric_dd(hdd)
            reported = dd.to_float(dd.add_f(elementary_symmetric(lam, dd.add, dd.mul)[p.k - 1], -1.0))
            truth = float(exact_sigma(hdd, p.k) - 1)
            assert abs(reported - truth) < 1e-24


class TestScanSigmasAgainstFloatOracles:
    @pytest.mark.parametrize("n, m", [(3, 0), (5, 0), (7, 0), (3, 2)])
    def test_dd_sigmas_match_charpoly_and_minors(self, n, m):
        # the scan's sigma_1..sigma_d come from the dd eigenvalues; the float
        # charpoly and the principal-minor sums must agree at moderate points
        from sigmak import doubledouble as dd
        from sigmak.solution import hessian_dd
        from sigmak.symfunc import (
            eigenvalues_symmetric_dd,
            elementary_symmetric,
            sigma_all_via_charpoly,
            sigma_via_minors,
        )

        p = SolutionParams(n, m)
        box = SampleBox(x_radius=1.0, t_range=(-1.0, 1.0), count=20, seed=11)
        for i in range(box.count):
            pt = sample_point(p, box, i)
            lam = eigenvalues_symmetric_dd(hessian_dd(p, pt, dd_terms(p, pt)))
            e = elementary_symmetric(lam, dd.add, dd.mul)
            hess = eval_jet(p, pt).hessian
            fro = hess.frobenius_norm()
            charpoly = sigma_all_via_charpoly(hess)
            for j in range(1, p.total_dim + 1):
                tol = 1e-10 * (1.0 + fro**j)
                by_dd = dd.to_float(e[j - 1])
                assert by_dd == pytest.approx(charpoly[j - 1], abs=tol)
                assert by_dd == pytest.approx(sigma_via_minors(hess, j), abs=tol)
            assert dd.to_float(e[p.k - 1]) == 1.0


class TestFiniteDifferenceOracle:
    def test_matches_closed_form_at_unit_x(self):
        pt = Point(x=(1.0, 0.0), t=0.0)
        fd = fd_hessian(P3, pt, 1e-5)
        closed = eval_jet(P3, pt).hessian
        np.testing.assert_allclose(fd.entries, closed.entries, atol=1e-5)

    def test_cross_terms_vanish_at_origin(self):
        fd = fd_hessian(P3, Point(x=(0.0, 0.0), t=0.0), 1e-5)
        assert abs(fd.entries[0][2]) <= 1e-6
        assert abs(fd.entries[1][2]) <= 1e-6

    def test_exact_on_quadratics(self):
        def quadratic(c):
            return 3.0 * c[0] ** 2 + 2.0 * c[0] * c[1] - c[1] ** 2 + 5.0 * c[0] - 7.0

        h = central_hessian(quadratic, [0.3, -1.2], 1e-4)
        np.testing.assert_allclose(h, [[6.0, 2.0], [2.0, -2.0]], atol=1e-8)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_hessian(P3, Point(x=(0.0, 0.0), t=0.0), 0.0)

    def test_overflow_at_stencil_points(self):
        with pytest.raises(OverflowError):
            fd_hessian(P3, Point(x=(0.0, 0.0), t=700.0), 1.0)


class TestPhase:
    def test_solution_hessian_hits_the_critical_phase(self):
        phase = sl_phase([-0.75, 2.0, 2.0])
        assert abs(phase - math.pi / 2) <= 1e-9
        assert CRITICAL_PHASE_N3 == pytest.approx(math.pi / 2)

    def test_identity(self):
        assert sl_phase([1.0, 1.0, 1.0]) == pytest.approx(3 * math.pi / 4)

    def test_zero_matrix(self):
        assert sl_phase([0.0] * 4) == 0.0


class TestNonpolyWitness:
    def test_entries_match_two_term_closed_form(self):
        w = nonpoly_witness(P3, 10)
        decay, growth = 0.25, -1.0
        for d in range(1, 11):
            want = decay * (math.exp(-1.0) - 1.0) ** (d + 1) + growth * (math.e - 1.0) ** (d + 1)
            assert w[d - 1] == pytest.approx(want, rel=1e-9)

    def test_first_and_tenth_values(self):
        w = nonpoly_witness(P3, 10)
        assert w[0] == pytest.approx(-2.8526, abs=1e-4)
        assert w[9] == pytest.approx(-385.514, abs=1e-2)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_all_entries_nonzero_up_to_degree_20(self, n):
        w = nonpoly_witness(derive_constants(n), 20)
        for d, entry in enumerate(w, start=1):
            scale = 1.0 + (math.e - 1.0) ** (d + 1)
            assert abs(entry) > 1e-6 * scale, (n, d)

    def test_polynomials_are_annihilated(self):
        def cubic(t):
            return 2.0 * t**3 - t**2 + 4.0 * t - 9.0

        assert iterated_forward_difference(cubic, 4) == pytest.approx(0.0, abs=1e-9)
        # one order lower does not annihilate: delta^3 (2t^3) = 12
        assert iterated_forward_difference(cubic, 3) == pytest.approx(12.0)

    def test_extension_rejected(self):
        with pytest.raises(ValueError, match="m = 0"):
            nonpoly_witness(SolutionParams(3, 1), 5)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            nonpoly_witness(P3, 0)
        with pytest.raises(CapabilityError):
            nonpoly_witness(P3, 41)
