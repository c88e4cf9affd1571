import dataclasses
import itertools
import math
import os
import re
import types

import numpy as np
import pytest

from conftest import (
    central_hessian,
    charpoly_sigmas,
    dd_add,
    dd_hessian,
    fd_hessian,
    frobenius_norm,
    nonpoly_witness,
    sigma_brute,
    sigma_minors,
)
from sigmak.solution import Point, SolutionParams, derive_constants, eval_jet, spectrum_dd
from sigmak.verify import (
    CRITICAL_PHASE_N3,
    SampleBox,
    residual_scan,
    sample_point,
    sl_phase,
    splitmix64_words,
)

P3 = derive_constants(3)
BOX = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=1000, seed=42)


class TestGenerator:
    def test_stream_reference_words(self):
        # recompute the documented mix inline, one word at a time, as the oracle
        def reference(seed, c):
            mask = (1 << 64) - 1
            z = (seed + (c + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return (z ^ (z >> 31)) & mask

        # counts around one lane-packed block of 100 words and past a dozen
        # blocks; the counter wraps mod 2^64 inside a call from 2^64 - 5
        for seed in (0, 42, 2**64 - 1):
            for first in (0, 1, 2, 1000, 2**64 - 5, 2**70):
                for count in (0, 1, 2, 13, 99, 100, 101, 1301):
                    expected = [reference(seed, first + i) for i in range(count)]
                    assert splitmix64_words(seed, first, count) == expected

    def test_stream_frozen_words(self):
        # stream words another implementation must reproduce exactly
        # (seed 0, counter 0 is the canonical first splitmix64 output)
        assert splitmix64_words(0, 0, 2) == [16294208416658607535, 7960286522194355700]
        assert splitmix64_words(42, 0, 2) == [13679457532755275413, 2949826092126892291]
        assert splitmix64_words(2**64 - 1, 0, 1) == [16490336266968443936]
        assert splitmix64_words(12345, 678, 1) == [9761773455441598619]

    def test_words_are_64_bit(self):
        assert all(0 <= word < 2**64 for word in splitmix64_words(7, 0, 50))

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


class TestSampleMapping:
    """sample_point against the word -> coordinate mapping of verify's docstring."""

    @staticmethod
    def documented_points(p, box, count):
        # sample i reads words i*d .. i*d + d - 1 of one stream: x block, t, w
        d, nx = p.total_dim, p.n_base - 1
        words = splitmix64_words(box.seed, 0, count * d)
        t_lo, t_hi = box.t_range
        points = []
        for i in range(count):
            u = [(word >> 11) * 2.0**-53 for word in words[i * d : (i + 1) * d]]
            coords = [-box.x_radius + 2.0 * box.x_radius * v for v in u]
            coords[nx] = t_lo + (t_hi - t_lo) * u[nx]
            points.append(coords)
        return points

    @pytest.mark.parametrize(
        "p, box",
        [
            (SolutionParams(3), BOX),
            (SolutionParams(7), BOX),
            (SolutionParams(5, 2), BOX),
            (SolutionParams(5, 2), SampleBox(0.7, (-1.5, 0.25), count=1, seed=2**64 - 1)),
        ],
        ids=["n3", "n7", "n5-m2", "asymmetric-box"],
    )
    def test_bit_for_bit(self, p, box):
        count = 2000
        for i, coords in enumerate(self.documented_points(p, box, count)):
            pt = sample_point(p, box, i)
            assert [v.hex() for v in (*pt.x, pt.t, *pt.w)] == [v.hex() for v in coords], i


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_named(self, seed):
        with pytest.raises(ValueError, match=f"seed must fit in 64 unsigned bits, got {seed}$"):
            SampleBox(x_radius=1.0, t_range=(-1.0, 1.0), count=10, seed=seed)

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
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        monkeypatch.setattr(verify, "SPECTRUM_AUDIT_REL_TOL", -1.0)
        first = sample_point(P3, BOX, 0)
        with pytest.raises(ConvergenceError, match="closed-form spectrum disagrees") as info:
            residual_scan(P3, dataclasses.replace(BOX, count=3))
        assert str(info.value).startswith(f"sample 0 at {first}: ")

    def test_argmax_point_is_reproducible(self):
        rep = residual_scan(P3, dataclasses.replace(BOX, count=200))
        again = residual_scan(P3, dataclasses.replace(BOX, count=200))
        assert rep.argmax_point == again.argmax_point


class TestSpectrumAudit:
    """The scan's closed-form spectrum and sigmas are checked exactly, at the
    sample's own point, on every AUDIT_STRIDE-th sample, in any dimension."""

    @staticmethod
    def shifted_spectrum(monkeypatch, first_shifted, rel_shift):
        # from call number first_shifted on, move the largest eigenvalue by
        # rel_shift * (1 + ||M||_F), and return the sigmas of the moved
        # spectrum, as a closed form with that eigenvalue wrong throughout
        from sigmak import doubledouble as dd
        from sigmak import verify
        from sigmak.symfunc import elementary_symmetric

        calls = []
        exact = verify.spectrum_dd

        def shifted(p, x, t):
            et, lam, sigmas = exact(p, x, t)
            if len(calls) >= first_shifted:
                fro = math.sqrt(sum(dd.to_float(v) ** 2 for v in lam))
                lam[-1] = dd_add(lam[-1], (rel_shift * (1.0 + fro), 0.0))
                sigmas = elementary_symmetric(lam, dd_add, dd.mul)[: p.k]
            calls.append(t)
            return et, lam, sigmas

        monkeypatch.setattr(verify, "spectrum_dd", shifted)

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("first_shifted", [0, 100])
    def test_a_wrong_eigenvalue_names_the_sample(self, monkeypatch, first_shifted):
        from sigmak.errors import ConvergenceError

        self.shifted_spectrum(monkeypatch, first_shifted, 1e-20)
        named = sample_point(P3, BOX, first_shifted)
        with pytest.raises(
            ConvergenceError, match="closed-form spectrum disagrees with the exact eigenvalues"
        ) as info:
            residual_scan(P3, dataclasses.replace(BOX, count=250))
        assert str(info.value).startswith(f"sample {first_shifted} at {named}: ")

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("n", [3, 13])
    def test_a_shift_below_the_spectrum_tolerance_fails_the_sigmas(
        self, monkeypatch, n
    ):
        # a tenth of the eigenvalues' tolerance passes their comparison; the
        # sigmas of the moved spectrum miss the exact sigma_j(N) / D^j
        from sigmak.errors import ConvergenceError
        from sigmak.verify import SPECTRUM_AUDIT_REL_TOL

        p = derive_constants(n)
        self.shifted_spectrum(monkeypatch, 0, SPECTRUM_AUDIT_REL_TOL / 10.0)
        with pytest.raises(
            ConvergenceError, match=r"structured sigma_\d+ disagrees with the exact sigma_"
        ) as info:
            residual_scan(p, dataclasses.replace(BOX, count=3))
        assert str(info.value).startswith(f"sample 0 at {sample_point(p, BOX, 0)}: ")

    @staticmethod
    def count_calls(monkeypatch, name):
        from sigmak import verify

        calls = []
        original = getattr(verify, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
        return calls

    @pytest.mark.usefixtures("one_cpu")
    def test_one_audit_per_hundred_samples(self, monkeypatch):
        hessians = self.count_calls(monkeypatch, "exact_hessian")
        spectra = self.count_calls(monkeypatch, "_check_spectrum")
        residual_scan(P3, BOX)
        assert BOX.count == 1000
        assert (len(hessians), len(spectra)) == (10, 10)

    @pytest.mark.usefixtures("one_cpu")
    def test_one_exponential_per_sample(self, monkeypatch):
        # the kernel reads e^t as the double math.exp(t) and returns it, and
        # the audit reads that double
        for i in range(BOX.count):
            pt = sample_point(P3, BOX, i)
            got = spectrum_dd(P3, pt.x, pt.t)[0]
            assert got.hex() == math.exp(pt.t).hex()
        audits = self.count_calls(monkeypatch, "_audit_sample")
        residual_scan(P3, BOX)
        assert [args[2].hex() for args, _ in audits] == [
            math.exp(sample_point(P3, BOX, i).t).hex() for i in range(0, BOX.count, 100)
        ]

    @pytest.mark.parametrize("n, m", [(3, 0), (7, 0), (5, 2)])
    def test_a_wrong_binomial_names_the_sample(self, monkeypatch, n, m):
        from sigmak import doubledouble as dd
        from sigmak.errors import ConvergenceError

        p = SolutionParams(n, m)
        binomials = list(p.arrow_binomials_dd)
        binomials[p.k - 1] = dd_add(binomials[p.k - 1], dd.ONE)
        object.__setattr__(p, "arrow_binomials_dd", tuple(binomials))
        with pytest.raises(ConvergenceError, match="structured sigma_") as info:
            residual_scan(p, dataclasses.replace(BOX, count=3))
        assert str(info.value).startswith(f"sample 0 at {sample_point(p, BOX, 0)}: ")

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("first_perturbed", [0, 100])
    def test_a_perturbed_determinant_names_the_sample(self, monkeypatch, first_perturbed):
        # det moved by 1e-20 relative in the sigmas only, not in the roots:
        # the scan runs the kernel's composition, which has that seam
        import conftest
        from sigmak import doubledouble as dd
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        calls = []
        exact = conftest.arrow_sigmas

        def perturbed(binomials, powers, tr, det):
            if len(calls) >= first_perturbed:
                det = dd.mul(det, (1.0, 1e-20))
            calls.append(det)
            return exact(binomials, powers, tr, det)

        monkeypatch.setattr(conftest, "arrow_sigmas", perturbed)
        monkeypatch.setattr(verify, "spectrum_dd", conftest.composed_spectrum_dd)
        p = derive_constants(7)
        named = sample_point(p, BOX, first_perturbed)
        with pytest.raises(
            ConvergenceError, match="structured sigma_2 disagrees with the exact sigma_2"
        ) as info:
            residual_scan(p, dataclasses.replace(BOX, count=250))
        assert str(info.value).startswith(f"sample {first_perturbed} at {named}: ")

    @pytest.mark.usefixtures("one_cpu")
    def test_audit_runs_past_the_minor_limit(self, monkeypatch):
        # at dimension 15 a principal-minor sum takes C(15, 8) = 6435 minors;
        # the audit forms the whole integer Hessian once per audited sample
        p = derive_constants(15)
        spectra = self.count_calls(monkeypatch, "_check_spectrum")
        residual_scan(p, dataclasses.replace(BOX, count=101))
        assert len(spectra) == 2
        for args, _ in spectra:
            rows = args[0]
            assert len(rows) == p.total_dim
            assert all(type(v) is int for row in rows for v in row)


class TestExactAudit:
    """_audit_sample decides with no tolerance that the integer Hessian N = D M
    at the sample's point has the closed form's spectrum, that sigma_k(N) is
    D^k and that sigma_1..sigma_(k-1) are positive, and names what fails."""

    @staticmethod
    def audit(p, x, t):
        from sigmak.verify import _audit_sample

        et, lam, sigmas = spectrum_dd(p, list(x), t)
        _audit_sample(p, list(x), et, lam, sigmas)

    @pytest.mark.parametrize(
        "n, m", [(n, 0) for n in range(3, 32, 2)] + [(5, 2)], ids=lambda v: str(v)
    )
    def test_seeded_points_pass(self, n, m):
        p = SolutionParams(n, m)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=20, seed=n + 1000 * m)
        for i in range(box.count):
            pt = sample_point(p, box, i)
            self.audit(p, pt.x, pt.t)

    @pytest.mark.parametrize("n, box", [
        (3, SampleBox(x_radius=3.0, t_range=(27.0, 28.0), count=20, seed=0)),
        (5, SampleBox(x_radius=1e12, t_range=(-2.0, 2.0), count=20, seed=0)),
        (3, SampleBox(x_radius=2e49, t_range=(-2.0, 2.0), count=20, seed=5)),
        (11, SampleBox(x_radius=4e12, t_range=(-2.0, 2.0), count=20, seed=5)),
    ], ids=["t27", "x1e12", "x2e49", "n11-x4e12"])
    def test_huge_entries_pass(self, n, box):
        # the float residual gate's conservative failures are no audit failure
        p = derive_constants(n)
        for i in range(box.count):
            pt = sample_point(p, box, i * 100)
            self.audit(p, pt.x, pt.t)

    @pytest.mark.parametrize("n, m", [(3, 0), (7, 0), (3, 2), (7, 1)])
    def test_the_origin_takes_the_whole_characteristic_polynomial(self, monkeypatch, n, m):
        # at x = 0 the roots of y^2 - tau y + delta are alpha and the corner,
        # so the values coincide; the annihilating polynomial and the power
        # sums still decide N's whole spectrum, as at every other point
        spectra = TestSpectrumAudit.count_calls(monkeypatch, "_check_spectrum")
        p = SolutionParams(n, m)
        for t in (-1.5, 0.0, 1.5):
            self.audit(p, (0.0,) * (n - 1), t)
        assert len(spectra) == 3

    @staticmethod
    def plant_diagonal(monkeypatch, p, x, t, planted):
        """Let the audit at (x, t) read the diagonal matrix and the closed
        form that planted(scale, alpha, tau, delta) returns, as (values,
        (alpha, tau, delta)), in place of exact_hessian's."""
        from sigmak import verify
        from sigmak.solution import exact_hessian

        scale, _, closed_form = exact_hessian(p, list(x), spectrum_dd(p, list(x), t)[0])
        values, closed_form = planted(scale, *closed_form)
        rows = [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]
        monkeypatch.setattr(verify, "exact_hessian", lambda *args: (scale, rows, closed_form))

    @pytest.mark.parametrize("n, m", [(n, m) for n in (3, 5, 7) for m in range(3)])
    def test_at_the_origin_only_the_true_multiset_passes(self, monkeypatch, n, m):
        # at x = 0, N is diagonal: alpha (n - 1 times), the corner and m
        # zeros; every multiset of n + m values over {alpha, corner, 0} is
        # planted as a diagonal N, and the spectrum check refuses all but N's
        from sigmak.errors import ConvergenceError
        from sigmak.solution import exact_hessian

        p = SolutionParams(n, m)
        x, t = (0.0,) * (n - 1), 0.4
        _, rows, _ = exact_hessian(p, list(x), spectrum_dd(p, list(x), t)[0])
        alpha, corner = rows[0][0], rows[n - 1][n - 1]
        assert len({alpha, corner, 0}) == 3
        multisets = list(itertools.combinations_with_replacement((alpha, corner, 0), n + m))
        assert len(multisets) == math.comb(n + m + 2, 2)
        passed = []
        for values in multisets:
            self.plant_diagonal(monkeypatch, p, x, t, lambda _, *form: (values, form))
            try:
                self.audit(p, x, t)
            except ConvergenceError as exc:
                assert re.match(r"entry \(|tr \(N - alpha I\)", str(exc)), str(exc)
            else:
                passed.append(sorted(values))
        assert passed == [sorted([alpha] * (n - 1) + [corner] + [0] * m)]

    @pytest.mark.parametrize("n, m, roots", [
        (3, 1, "0, tau"), (5, 2, "0, tau"), (3, 0, "tau, tau"), (5, 2, "tau, tau"),
    ], ids=["delta-n3-m1", "delta-n5-m2", "disc-n3", "disc-n5-m2"])
    def test_a_planted_coincident_spectrum_is_decided_by_sigma_k(self, monkeypatch, n, m, roots):
        # a diagonal N with the spectrum that a closed form claims whose
        # quadratic has the roots 0 and tau (delta = 0, where 0 is also the
        # w block's value) or tau twice (tau^2 = 4 delta): the spectrum check
        # passes, and sigma_k(N) = D^k, the claim, is what fails
        from sigmak.errors import ConvergenceError

        def planted(scale, alpha, tau, delta):
            mu, nu = (0, tau) if roots == "0, tau" else (tau, tau)
            return [alpha] * (n - 2) + [0] * m + [mu, nu], (alpha, mu + nu, mu * nu)

        p = SolutionParams(n, m)
        x = (0.75, -1.5, 2.0, 0.25)[: n - 1]
        self.plant_diagonal(monkeypatch, p, x, 0.4, planted)
        spectra = TestSpectrumAudit.count_calls(monkeypatch, "_check_spectrum")
        k = p.k
        with pytest.raises(
            ConvergenceError,
            match=rf"^exact sigma_{k}\(N\) - D\^{k} is -?[0-9.e+-]+ D\^{k}, not 0$",
        ):
            self.audit(p, x, 0.4)
        assert len(spectra) == 1

    def test_a_wrong_multiplicity_at_delta_zero_names_a_power_sum(self, monkeypatch):
        # the closed form claims alpha 3 times, 0 3 times and tau; the planted
        # N has alpha 4 times, 0 twice and tau, each value a root of the
        # annihilating polynomial, so tr (N - alpha I) tells them apart
        from sigmak.errors import ConvergenceError

        p = SolutionParams(5, 2)
        x = (0.75, -1.5, 2.0, 0.25)

        def planted(scale, alpha, tau, delta):
            return [alpha] * 4 + [0] * 2 + [tau], (alpha, tau, 0)

        self.plant_diagonal(monkeypatch, p, x, 0.4, planted)
        with pytest.raises(
            ConvergenceError, match=r"^tr \(N - alpha I\)\^1 differs from the closed form's by "
        ):
            self.audit(p, x, 0.4)

    @pytest.mark.parametrize("n, m, x", [
        (3, 0, (0.5, -1.0)), (7, 0, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)), (5, 2, (1.0, 0.0, -2.0, 0.5)),
    ], ids=["n3", "n7-origin", "n5-m2"])
    def test_a_perturbed_b_names_sigma_k_minus_d_to_the_k(self, n, m, x):
        # sigma_k = A e^((k-1)t) h'' + B e^(kt), so B' = B (1 + 1e-6) in h''
        # alone leaves sigma_k - 1 = -1e-6 B E^k
        from fractions import Fraction

        from sigmak.errors import ConvergenceError

        p = SolutionParams(n, m)
        want = -1e-6 * float(p.B) * math.exp(0.3) ** p.k
        object.__setattr__(p, "B", p.B * Fraction(1_000_001, 1_000_000))
        with pytest.raises(ConvergenceError) as info:
            self.audit(p, x, 0.3)
        prefix = f"exact sigma_{p.k}(N) - D^{p.k} is "
        text = str(info.value)
        assert text.startswith(prefix) and text.endswith(f" D^{p.k}, not 0"), text
        assert float(text[len(prefix):].split()[0]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n, m, entry", [
        (3, 0, (0, 1)), (7, 0, (2, 2)), (7, 0, (6, 6)), (5, 2, (5, 5)), (5, 2, (0, 5)),
    ], ids=["x-x", "x-diagonal", "corner", "w-diagonal", "x-w"])
    def test_a_planted_wrong_entry_names_the_annihilating_polynomial(
        self, monkeypatch, n, m, entry
    ):
        # one entry of the integer Hessian (and its mirror) off by one; the
        # closed form's alpha, tau and delta are left as they were
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        builder = verify.exact_hessian

        def planted(*args):
            scale, rows, closed_form = builder(*args)
            i, j = entry
            rows[i][j] += 1
            if i != j:
                rows[j][i] += 1
            return scale, rows, closed_form

        monkeypatch.setattr(verify, "exact_hessian", planted)
        p = SolutionParams(n, m)
        degree = 4 if m else 3
        with pytest.raises(
            ConvergenceError,
            match=rf"^entry \(\d+, \d+\) of the closed form's annihilating polynomial at N "
                  rf"is -?[0-9.e+-]+ D\^{degree}, not 0$",
        ):
            self.audit(p, (0.75, -1.5, 2.0, 0.25, -3.0, 1.0)[: n - 1], 0.4)

    def test_wrong_multiplicities_name_a_power_sum(self, monkeypatch):
        # alpha I is annihilated by the closed form's polynomial, but it has
        # the value alpha d times; tr (N - alpha I) tells them apart
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        builder = verify.exact_hessian

        def scalar(*args):
            scale, rows, closed_form = builder(*args)
            alpha = closed_form[0]
            return scale, [[alpha if i == j else 0 for j in range(3)] for i in range(3)], closed_form

        monkeypatch.setattr(verify, "exact_hessian", scalar)
        with pytest.raises(
            ConvergenceError, match=r"^tr \(N - alpha I\)\^1 differs from the closed form's by "
        ):
            self.audit(P3, (0.5, -1.0), 0.4)

    def test_a_planted_wrong_entry_at_the_origin_names_the_annihilating_polynomial(
        self, monkeypatch
    ):
        # at x = 0 the closed form's values coincide; the x block [[alpha, 1],
        # [1, alpha]] has alpha - 1 and alpha + 1, which are none of them
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        builder = verify.exact_hessian

        def planted(*args):
            scale, rows, closed_form = builder(*args)
            rows[0][1] = rows[1][0] = 1
            return scale, rows, closed_form

        monkeypatch.setattr(verify, "exact_hessian", planted)
        with pytest.raises(
            ConvergenceError,
            match=r"^entry \(\d+, \d+\) of the closed form's annihilating polynomial at N "
                  r"is -?[0-9.e+-]+ D\^3, not 0$",
        ):
            self.audit(P3, (0.0, 0.0), 0.4)

    @pytest.mark.parametrize("factor, shown", [(-1, "-[0-9.e+]+"), (0, "0")])
    def test_a_sigma_that_is_not_positive_is_named(self, monkeypatch, factor, shown):
        # sigma_1 of the closed form's spectrum read as negative, or as 0,
        # which is outside the cone too
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        exact = verify._arrow_sigmas

        def scaled_first(*args):
            sigmas = exact(*args)
            sigmas[0] *= factor
            return sigmas

        monkeypatch.setattr(verify, "_arrow_sigmas", scaled_first)
        with pytest.raises(
            ConvergenceError, match=rf"^exact sigma_1\(N\) is {shown} D\^1, not positive$"
        ):
            self.audit(derive_constants(5), (0.5, -1.0, 2.0, 0.25), 0.1)


class TestSampleRanges:
    """A scan splits its samples into contiguous ranges, one per visible CPU,
    and scans all but the first in forked workers; how many ranges there are
    never shows in the report, in an error or in the processes left."""

    SEED0 = dataclasses.replace(BOX, seed=0)
    ALLOWED = getattr(os, "sched_getaffinity", lambda pid: set())(0)  # at import

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("p, box", [
        (P3, BOX),
        (SolutionParams(3, 1), BOX),
        (SolutionParams(7), BOX),
        (SolutionParams(9), SEED0),
        (P3, dataclasses.replace(BOX, count=1001)),
    ], ids=["n3", "n3-m1", "n7", "n9-failing", "n3-1001"])
    def test_the_worker_count_never_changes_the_report(self, visible_cpus, p, box):
        reports = [residual_scan(p, box)]  # on every CPU this process may use
        self.assert_no_children()
        for cpus in (1, 3):
            visible_cpus(cpus)
            reports.append(residual_scan(p, box))
            self.assert_no_children()
        assert reports[1] == reports[0] and reports[2] == reports[0]
        if p.n_base == 9:
            # samples 342, 607 and 837 fail the float cone rule at j = k: in
            # every range but the first of three, and in both of two
            assert (reports[0].cone_failures, reports[0].lemma_failures) == (3, 3)

    def test_the_merge_follows_the_one_loop_rules(self, visible_cpus, monkeypatch):
        # every sample's sigma_k is 1 + 2^-60, so the one-loop argmax is
        # sample 0 and a later range may not take it on a tie; sample 900,
        # in the last of three ranges, has the smallest sigma_1
        from sigmak import verify

        exact = verify.spectrum_dd
        smallest = sample_point(P3, BOX, 900).t

        def tied(p, x, t):
            et, lam, sigmas = exact(p, x, t)
            if et == math.exp(smallest):  # e^t of sample 900
                sigmas[0] = (0.5, 0.0)
            return et, lam, sigmas[:-1] + [(1.0, 2.0**-60)]

        monkeypatch.setattr(verify, "spectrum_dd", tied)
        monkeypatch.setattr(verify, "_audit_sample", lambda *args: None)
        visible_cpus(3)
        rep = residual_scan(P3, BOX)
        assert rep.max_abs_residual == 2.0**-60
        assert rep.argmax_point == sample_point(P3, BOX, 0)
        assert rep.min_sigma_j == 0.5

    @pytest.mark.skipif(len(ALLOWED) < 2, reason="needs two CPUs")
    def test_the_callers_cpus_are_given_back(self, monkeypatch):
        # the scan moves this thread from CPU to CPU while it forks its workers
        from sigmak.errors import ConvergenceError

        assert os.sched_getaffinity(0) == self.ALLOWED
        residual_scan(P3, BOX)
        assert os.sched_getaffinity(0) == self.ALLOWED
        self.plant(monkeypatch, P3, BOX, [900])
        with pytest.raises(ConvergenceError, match="^sample 900 at "):
            residual_scan(P3, BOX)
        assert os.sched_getaffinity(0) == self.ALLOWED
        self.assert_no_children()

    def test_ranges_are_contiguous_and_not_too_short(self):
        from sigmak.verify import MIN_RANGE_SAMPLES, _sample_ranges

        assert _sample_ranges(1000, 3) == [(0, 333), (333, 666), (666, 1000)]
        for count, ranges in ((3 * MIN_RANGE_SAMPLES - 1, 2), (2 * MIN_RANGE_SAMPLES - 1, 1)):
            got = _sample_ranges(count, 3)
            assert len(got) == ranges
            assert [start for start, _ in got] == [0] + [stop for _, stop in got[:-1]]
            assert got[-1][1] == count
            assert min(stop - start for start, stop in got) >= MIN_RANGE_SAMPLES
        assert _sample_ranges(10000, 1) == [(0, 10000)]
        assert _sample_ranges(10000, 0) == [(0, 10000)]  # no CPU set to read

    def test_the_cpu_set_is_read_once(self, visible_cpus, monkeypatch):
        # the set shrinks from two CPUs to one after its first read: a scan
        # that split its samples by the first read and forked by a second
        # one scanned only the first of its two ranges
        visible_cpus(1)
        serial = residual_scan(SolutionParams(9), self.SEED0)
        reads = []

        def shrinking(pid):
            reads.append(pid)
            return {0, 1} if len(reads) == 1 else {0}

        monkeypatch.setattr(os, "sched_getaffinity", shrinking)
        assert residual_scan(SolutionParams(9), self.SEED0) == serial
        assert (serial.cone_failures, len(reads)) == (3, 1)
        self.assert_no_children()

    def test_one_cpu_forks_nothing(self, one_cpu, monkeypatch):
        def refuse():
            raise AssertionError("a one-CPU scan forked")

        monkeypatch.setattr(os, "fork", refuse)
        assert residual_scan(P3, dataclasses.replace(BOX, count=200)).phase_ok is True

    @staticmethod
    def plant(monkeypatch, p, box, indices, action=None):
        # samples `indices` fail in whichever process scans them: each is
        # recognized by its t, and raises a ConvergenceError whose
        # offdiag_norm is its index, or runs `action` if one is given
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        planted = {sample_point(p, box, i).t: i for i in indices}
        exact = verify.spectrum_dd

        def failing(p, x, t):
            if t in planted:
                if action is not None:
                    action()
                raise ConvergenceError(f"planted at {planted[t]}", offdiag_norm=planted[t])
            return exact(p, x, t)

        monkeypatch.setattr(verify, "spectrum_dd", failing)

    @pytest.mark.parametrize("indices", [[700], [450, 800], [100, 800]])
    def test_a_failure_names_the_lowest_sample_however_many_run(
        self, visible_cpus, monkeypatch, indices
    ):
        from sigmak.errors import ConvergenceError

        self.plant(monkeypatch, P3, BOX, indices)
        errors = []
        for cpus in (1, 3):
            visible_cpus(cpus)
            with pytest.raises(ConvergenceError) as info:
                residual_scan(P3, BOX)
            errors.append(info.value)
            self.assert_no_children()
        first = indices[0]
        assert str(errors[0]) == str(errors[1])
        assert str(errors[1]).startswith(f"sample {first} at {sample_point(P3, BOX, first)}: ")
        assert errors[0].offdiag_norm == errors[1].offdiag_norm == first

    def test_a_worker_audits_by_the_global_sample_index(self, visible_cpus, monkeypatch):
        # sample 700 is the 34th of the third range of three: an audit of
        # every 100th sample counted within the range would pass it over
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        x = list(sample_point(P3, BOX, 700).x)
        exact = verify._audit_sample

        def audit(p, xs, *args):
            if xs == x:
                raise ConvergenceError("audited")
            return exact(p, xs, *args)

        monkeypatch.setattr(verify, "_audit_sample", audit)
        visible_cpus(3)
        with pytest.raises(ConvergenceError, match="^sample 700 at .*: audited$"):
            residual_scan(P3, BOX)
        self.assert_no_children()

    def test_a_killed_worker_is_an_error_naming_its_range(
        self, visible_cpus, monkeypatch, capsys
    ):
        import signal

        from sigmak.cli import run

        parent = os.getpid()

        def die():
            if os.getpid() == parent:
                raise AssertionError("sample 800 was not scanned in a worker")
            os.kill(os.getpid(), signal.SIGKILL)

        box = dataclasses.replace(BOX, seed=0)
        self.plant(monkeypatch, P3, box, [800], action=die)
        visible_cpus(3)
        assert run(["verify", "-n", "3", "--samples", "1000"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "sigmak: error: the scan worker of samples 666 to 999 ended without a "
            f"report (killed by signal {int(signal.SIGKILL)})\n"
        )
        self.assert_no_children()

    def test_an_interrupt_here_reaps_the_workers(self, visible_cpus, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        self.plant(monkeypatch, P3, BOX, [200], action=interrupt)
        visible_cpus(3)
        with pytest.raises(KeyboardInterrupt):
            residual_scan(P3, BOX)
        self.assert_no_children()


class TestSampleBlocks:
    """A range draws its samples' words one block of AUDIT_STRIDE samples at
    a time, from its start, and scans the same samples as one-sample ranges."""

    @staticmethod
    def one_loop(parts):
        # the merge rules of residual_scan over partial reports in range order
        max_resid, argmax, cones, lemmas, sigma, phases = -1.0, None, 0, 0, math.inf, 0
        for resid, index, cone, lemma, smallest, phase in parts:
            if resid > max_resid:
                max_resid, argmax = resid, index
            cones, lemmas, phases = cones + cone, lemmas + lemma, phases + phase
            sigma = min(sigma, smallest)
        return max_resid, argmax, cones, lemmas, sigma, phases

    @pytest.mark.parametrize("n, m", [(3, 0), (7, 0), (5, 2)])
    @pytest.mark.parametrize("start, stop", [(37, 450), (99, 101), (0, 1)])
    def test_a_range_scans_its_samples_one_by_one(self, monkeypatch, n, m, start, stop):
        # the (x, t) of every sample and the x of every audit, in scan order,
        # are sample_point's, by the range and by its one-sample ranges, and
        # the range's partial report is their one-loop merge: a block that
        # drops, repeats or shifts a sample, or reads a w word as t, fails
        from sigmak import verify

        p = SolutionParams(n, m)
        seen = []
        kernel, audit = verify.spectrum_dd, verify._audit_sample

        def recorded_kernel(p, x, t):
            seen.append(("sample", list(x), t))
            return kernel(p, x, t)

        def recorded_audit(p, x, *args):
            seen.append(("audit", list(x)))
            return audit(p, x, *args)

        monkeypatch.setattr(verify, "spectrum_dd", recorded_kernel)
        monkeypatch.setattr(verify, "_audit_sample", recorded_audit)
        whole = verify._scan_range(p, BOX, start, stop)
        by_range = seen.copy()
        seen.clear()
        parts = [verify._scan_range(p, BOX, i, i + 1) for i in range(start, stop)]
        expected = []
        for i in range(start, stop):
            pt = sample_point(p, BOX, i)
            expected.append(("sample", list(pt.x), pt.t))
            if i % 100 == 0:
                expected.append(("audit", list(pt.x)))
        assert by_range == expected and seen == expected
        assert whole == self.one_loop(parts)

    def test_one_generator_call_per_block(self, monkeypatch):
        from sigmak import verify

        calls = TestSpectrumAudit.count_calls(monkeypatch, "splitmix64_words")
        verify._scan_range(P3, BOX, 0, 1000)
        assert [args[1:] for args, _ in calls] == [(300 * b, 300) for b in range(10)]

    def test_memory_is_bounded_by_one_block(self):
        # one block of 100 n = 3 samples (300 words in 128-bit lanes, their
        # list and the mix's temporaries) peaks near 50 kB; the 6000 words of
        # the whole range drawn at once peak near 670 kB (CPython 3.11)
        import tracemalloc

        from sigmak import verify

        verify._scan_range(P3, BOX, 0, 101)  # the audit's first-call set-up
        tracemalloc.start()
        try:
            verify._scan_range(P3, BOX, 3000, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000


class TestScanNegativeControls:
    """The scan's residual fails when the solution is wrong, and it needs one
    consistent e^t, not an accurate one.  The exact audit of sample 0 stops
    such a scan first, so the gate controls run with the audit stubbed out,
    and each has a twin that asserts what the audit names."""

    DEFAULT_BOX = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=2000, seed=0)

    @staticmethod
    def perturbed_growth(n):
        # the e^t coefficient of h'', -B/A, off by one part in 10^6
        from sigmak import doubledouble as dd

        p = SolutionParams(n)
        object.__setattr__(p, "h2_growth_dd", dd.mul(p.h2_growth_dd, (1.0 + 1e-6, 0.0)))
        return p

    @staticmethod
    def two_exponentials(monkeypatch):
        # e^(-(k-1)t) as math.exp(-(k-1)t): each exponential is within an ulp
        # of its own value, but not the reciprocal of the other's power; the
        # scan runs the kernel's composition, with that term replaced
        import conftest
        from sigmak import doubledouble as dd
        from sigmak import verify

        exact = conftest.dd_terms

        def terms(p, x, t):
            et_powers, _, r2et = exact(p, x, t)
            e_decay = (math.exp(-(p.k - 1) * t), 0.0)
            h2 = dd_add(
                dd.mul(p.h2_decay_dd, e_decay), dd.mul(p.h2_growth_dd, et_powers[0])
            )
            return et_powers, h2, r2et

        monkeypatch.setattr(conftest, "dd_terms", terms)
        monkeypatch.setattr(verify, "spectrum_dd", conftest.composed_spectrum_dd)

    @pytest.mark.parametrize("n", [3, 7])
    def test_a_perturbed_growth_coefficient_fails_the_gate(self, monkeypatch, n):
        from sigmak import verify
        from sigmak.cli import RESIDUAL_GATE

        monkeypatch.setattr(verify, "_audit_sample", lambda *args: None)
        p = self.perturbed_growth(n)
        rep = residual_scan(p, dataclasses.replace(self.DEFAULT_BOX, count=500))
        assert rep.max_abs_residual > RESIDUAL_GATE

    @pytest.mark.parametrize("n", [3, 7])
    def test_a_perturbed_growth_coefficient_fails_the_audit(self, n):
        # the exact Hessian reads the exact B/A; the dd roots miss its roots
        from sigmak.errors import ConvergenceError

        p = self.perturbed_growth(n)
        with pytest.raises(ConvergenceError) as info:
            residual_scan(p, dataclasses.replace(self.DEFAULT_BOX, count=500))
        text = str(info.value)
        assert text.startswith(f"sample 0 at {sample_point(p, self.DEFAULT_BOX, 0)}: ")
        gap = float(text.split("disagrees with the exact eigenvalues by ")[1].split()[0])
        assert 1e-9 < gap < 1e-3

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_the_residual_is_at_double_double_rounding(self, n):
        rep = residual_scan(SolutionParams(n), self.DEFAULT_BOX)
        assert rep.max_abs_residual <= 1e-20

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_a_second_exponential_breaks_the_residual(self, monkeypatch, n):
        from sigmak import verify

        monkeypatch.setattr(verify, "_audit_sample", lambda *args: None)
        self.two_exponentials(monkeypatch)
        rep = residual_scan(SolutionParams(n), self.DEFAULT_BOX)
        assert rep.max_abs_residual > 1e-20

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_a_second_exponential_fails_the_audit(self, monkeypatch, n):
        # the exact Hessian at t* = ln E reads E alone; h'' from a second
        # exponential is off by about an ulp, far above the dd tolerance
        from sigmak.errors import ConvergenceError

        self.two_exponentials(monkeypatch)
        p = SolutionParams(n)
        with pytest.raises(ConvergenceError) as info:
            residual_scan(p, self.DEFAULT_BOX)
        text = str(info.value)
        assert text.startswith(f"sample 0 at {sample_point(p, self.DEFAULT_BOX, 0)}: ")
        gap = float(text.split("disagrees with the exact eigenvalues by ")[1].split()[0])
        assert 1e-20 < gap < 1e-12


class TestResidualAgainstExactArithmetic:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_dd_residual_equals_exact_rational_residual(self, n):
        # every double-double Hessian entry is the exact rational hi + lo, so
        # exact Fraction minors give the true sigma_k of the same matrix; the
        # scan's closed-form residual must match it, not merely be small
        from fractions import Fraction

        from sigmak import doubledouble as dd

        p = derive_constants(n)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=5, seed=77)
        for i in range(5):
            pt = sample_point(p, box, i)
            _, _, sigmas = spectrum_dd(p, pt.x, pt.t)
            reported = dd.to_float(dd.sub(sigmas[p.k - 1], dd.ONE))
            exact = [[Fraction(e[0]) + Fraction(e[1]) for e in row] for row in dd_hessian(p, pt)]
            truth = float(sigma_brute(exact, p.k) - 1)
            assert abs(reported - truth) < 1e-24


class TestScanSigmasAgainstFloatOracles:
    @pytest.mark.parametrize("n, m", [(3, 0), (5, 0), (7, 0), (3, 2)])
    def test_dd_sigmas_match_charpoly_and_minors(self, n, m):
        # sigma_1..sigma_d of the scan's closed-form dd eigenvalues; the float
        # charpoly and the principal-minor sums must agree at moderate points
        from sigmak import doubledouble as dd
        from sigmak.symfunc import elementary_symmetric

        p = SolutionParams(n, m)
        box = SampleBox(x_radius=1.0, t_range=(-1.0, 1.0), count=20, seed=11)
        for i in range(box.count):
            pt = sample_point(p, box, i)
            _, lam, _ = spectrum_dd(p, pt.x, pt.t)
            e = elementary_symmetric(lam, dd_add, dd.mul)
            hess = eval_jet(p, pt).hessian
            fro = frobenius_norm(hess)
            charpoly = charpoly_sigmas(hess)
            for j in range(1, p.total_dim + 1):
                tol = 1e-10 * (1.0 + fro**j)
                by_dd = dd.to_float(e[j - 1])
                assert by_dd == pytest.approx(charpoly[j - 1], abs=tol)
                assert by_dd == pytest.approx(sigma_minors(hess, j), abs=tol)
            assert dd.to_float(e[p.k - 1]) == 1.0


class TestFiniteDifferenceOracle:
    def test_matches_closed_form_at_unit_x(self):
        pt = Point(x=(1.0, 0.0), t=0.0)
        fd = fd_hessian(P3, pt, 1e-5)
        closed = eval_jet(P3, pt).hessian
        np.testing.assert_allclose(fd, closed, atol=1e-5)

    def test_cross_terms_vanish_at_origin(self):
        fd = fd_hessian(P3, Point(x=(0.0, 0.0), t=0.0), 1e-5)
        assert abs(fd[0][2]) <= 1e-6
        assert abs(fd[1][2]) <= 1e-6

    def test_exact_on_quadratics(self):
        def quadratic(c):
            return 3.0 * c[0] ** 2 + 2.0 * c[0] * c[1] - c[1] ** 2 + 5.0 * c[0] - 7.0

        h = central_hessian(quadratic, [0.3, -1.2], 1e-4)
        np.testing.assert_allclose(h, [[6.0, 2.0], [2.0, -2.0]], atol=1e-8)

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

    def test_polynomials_are_annihilated(self, monkeypatch):
        # the witness reads zero where u(0, t) is a polynomial: h a cubic
        import conftest

        def cubic(p, pt):
            t = pt.t
            return types.SimpleNamespace(value=2.0 * t**3 - t**2 + 4.0 * t - 9.0)

        monkeypatch.setattr(conftest, "eval_jet", cubic)
        w = nonpoly_witness(P3, 4)
        assert w[2:] == pytest.approx([0.0, 0.0], abs=1e-9)
        # one order lower does not annihilate: delta^3 (2t^3) = 12
        assert w[1] == pytest.approx(12.0)
