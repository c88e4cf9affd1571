import dataclasses
import itertools
import math
import os
import re
import types

import numpy as np
import pytest

from conftest import (
    DD_ONE,
    central_hessian,
    charpoly_sigmas,
    composed_eigenvalues_dd,
    dd_add,
    dd_elementary_symmetric,
    dd_hessian,
    dd_mul,
    dd_sub,
    fd_hessian,
    frobenius_norm,
    nonpoly_witness,
    reference_scan_range,
    sigma_brute,
    sigma_minors,
    spectrum_dd_at,
    to_float,
)
from sigmak.solution import (
    Point,
    SolutionParams,
    derive_constants,
    eval_jet,
)
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


def reference_word(seed, c):
    # the documented mix, one word at a time, as the oracle
    mask = (1 << 64) - 1
    z = (seed + (c + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


class TestGenerator:
    def test_stream_reference_words(self):
        # counts around one lane-packed block of 100 words and past a dozen
        # blocks; the counter wraps mod 2^64 inside a call from 2^64 - 5
        for seed in (0, 42, 2**64 - 1):
            for first in (0, 1, 2, 1000, 2**64 - 5, 2**70):
                for count in (0, 1, 2, 13, 99, 100, 101, 1301):
                    expected = [reference_word(seed, first + i) for i in range(count)]
                    assert splitmix64_words(seed, first, count) == expected

    def test_smaller_counts_after_a_large_block(self):
        # a block of 100 samples at d = 123 sizes the lanes for 12300 words;
        # smaller counts take their low lanes, also across the 2^64 wrap,
        # drawn in ascending and in descending order
        from sigmak import verify

        splitmix64_words(7, 0, 12300)
        assert verify._lanes[0] >= 12300
        counts = (0, 1, 2, 3, 100, 123, 300, 4999, 12299, 12300)
        for order in (counts, counts[::-1]):
            for count in order:
                for seed, first in ((7, 0), (2**64 - 1, 2**64 - 1 - count // 2), (3, 2**70)):
                    expected = [reference_word(seed, first + i) for i in range(count)]
                    assert splitmix64_words(seed, first, count) == expected, (seed, first, count)

    def test_one_cache_entry_for_the_largest_count(self, monkeypatch):
        from sigmak import verify

        monkeypatch.setattr(verify, "_lanes", (0, 0, 0, 0))
        for count, size in ((5, 5), (300, 300), (7, 300), (700, 700), (300, 700), (0, 700)):
            splitmix64_words(1, 0, count)
            cached, steps, ones, mask = verify._lanes
            assert cached == size, count
            assert max(steps.bit_length(), ones.bit_length(), mask.bit_length()) <= 128 * size
            assert mask == ones * (2**64 - 1) and mask.bit_length() == 128 * size - 64

    def test_strided_words(self, monkeypatch):
        # the first `take` of every `stride` words, in ascending and in
        # descending counts, the pattern alternating with plain draws and
        # with other patterns, also across the 2^64 wrap
        from sigmak import verify

        monkeypatch.setattr(verify, "_strided_lanes", ((1, 1), 0, 0, 0, 0))
        cases = [(3, 5, c) for c in (0, 3, 300, 150, 600, 3)] + [(1, 2003, 100), (7, 9, 700)]
        for take, stride, count in cases + cases[::-1]:
            for seed, first in ((7, 0), (2**64 - 1, 2**64 - 1 - 5 * stride), (3, 2**70)):
                expected = [
                    reference_word(seed, first + j + j // take * (stride - take))
                    for j in range(count)
                ]
                got = splitmix64_words(seed, first, count, take=take, stride=stride)
                assert got == expected, (take, stride, count, seed, first)
                assert splitmix64_words(seed, first, count) == [
                    reference_word(seed, first + j) for j in range(count)
                ]

    def test_take_equal_to_stride_is_the_plain_stream(self, monkeypatch):
        # at m = 0 the scan draws through the plain lanes, not a strided entry
        from sigmak import verify

        empty = ((1, 1), 0, 0, 0, 0)
        monkeypatch.setattr(verify, "_strided_lanes", empty)
        got = splitmix64_words(5, 300, 300, take=3, stride=3)
        assert got == splitmix64_words(5, 300, 300)
        assert verify._strided_lanes == empty

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

        monkeypatch.setattr(verify, "SIGMA_AUDIT_UNITS", -1.0)
        first = sample_point(P3, BOX, 0)
        with pytest.raises(ConvergenceError, match="structured sigma_1 disagrees") as info:
            residual_scan(P3, dataclasses.replace(BOX, count=3))
        assert str(info.value).startswith(f"sample 0 at {first}: ")

    def test_argmax_point_is_reproducible(self):
        rep = residual_scan(P3, dataclasses.replace(BOX, count=200))
        again = residual_scan(P3, dataclasses.replace(BOX, count=200))
        assert rep.argmax_point == again.argmax_point


class TestSpectrumAudit:
    """The scan's closed-form sigmas are checked exactly, at the sample's own
    point, on every AUDIT_STRIDE-th sample, in any dimension."""

    @staticmethod
    def shifted_spectrum(monkeypatch, first_shifted, rel_shift):
        # from kernel sample number first_shifted on, move the largest
        # eigenvalue by rel_shift * (1 + ||M||_F) and return the sigmas of
        # the moved spectrum, as a closed form with that eigenvalue wrong
        # throughout
        from sigmak import verify

        calls = []
        kernel = verify.spectrum_dd

        def shifted(p, points):
            for (x, t), (et, terms, sigmas) in zip(points, kernel(p, points)):
                if len(calls) >= first_shifted:
                    lam = composed_eigenvalues_dd(p, x, t)
                    fro = math.sqrt(sum(to_float(v) ** 2 for v in lam))
                    lam[-1] = dd_add(lam[-1], (rel_shift * (1.0 + fro), 0.0))
                    sigmas = dd_elementary_symmetric(lam)[: p.k]
                calls.append(t)
                yield et, terms, sigmas

        monkeypatch.setattr(verify, "spectrum_dd", shifted)

    @staticmethod
    def gap_and_tolerance(text):
        # the gap and the tolerance that a failed sigma check names
        found = re.search(r"by (\S+) \(tolerance (\S+)\)$", text)
        return float(found[1]), float(found[2])

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("first_shifted", [0, 100])
    def test_a_wrong_eigenvalue_names_the_sample(self, monkeypatch, first_shifted):
        from sigmak.errors import ConvergenceError

        self.shifted_spectrum(monkeypatch, first_shifted, 1e-20)
        named = sample_point(P3, BOX, first_shifted)
        with pytest.raises(
            ConvergenceError, match=r"structured sigma_\d+ disagrees with the exact sigma_"
        ) as info:
            residual_scan(P3, dataclasses.replace(BOX, count=250))
        assert str(info.value).startswith(f"sample {first_shifted} at {named}: ")
        # sigma_1 moves by 1e-20 (1 + ||M||_F) against ~1e-30 e_1(|lambda|)
        gap, tol = self.gap_and_tolerance(str(info.value))
        assert gap > 1e9 * tol

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("n", [3, 13])
    def test_a_shift_below_the_spectrum_tolerance_fails_the_sigmas(
        self, monkeypatch, n
    ):
        # 1e-27 relative, a tenth of the 1e-26 that the eigenvalues were once
        # compared within: the sigmas of the moved spectrum still miss the
        # exact sigma_j(N) / D^j
        from sigmak.errors import ConvergenceError

        p = derive_constants(n)
        self.shifted_spectrum(monkeypatch, 0, 1e-27)
        with pytest.raises(
            ConvergenceError, match=r"structured sigma_\d+ disagrees with the exact sigma_"
        ) as info:
            residual_scan(p, dataclasses.replace(BOX, count=3))
        assert str(info.value).startswith(f"sample 0 at {sample_point(p, BOX, 0)}: ")
        gap, tol = self.gap_and_tolerance(str(info.value))
        assert gap > 10.0 * tol

    @staticmethod
    def count_calls(monkeypatch, name, module=None):
        # calls of `name` as looked up in `module`, by default sigmak.verify
        from sigmak import verify

        module = module or verify
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.usefixtures("one_cpu")
    def test_one_audit_per_hundred_samples(self, monkeypatch):
        hessians = self.count_calls(monkeypatch, "exact_hessian")
        audits = self.count_calls(monkeypatch, "_audit_sample")
        residual_scan(P3, BOX)
        assert BOX.count == 1000
        assert (len(hessians), len(audits)) == (10, 10)

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("m", [0, 2, 120])
    def test_no_scan_lays_out_a_matrix(self, monkeypatch, m):
        # the audit reads exact_hessian's arrow parts as they are
        from sigmak import solution

        layouts = self.count_calls(monkeypatch, "arrow_rows", solution)
        audits = self.count_calls(monkeypatch, "_audit_sample")
        residual_scan(SolutionParams(3, m), dataclasses.replace(BOX, count=201))
        assert (len(layouts), len(audits)) == (0, 3)

    @pytest.mark.usefixtures("one_cpu")
    def test_the_audit_forms_no_roots(self, monkeypatch):
        # the audit reads the kernel's E and sigmas, not its terms, and takes
        # no float square root: the scan's one per sample is fro's
        from sigmak import verify

        roots = []

        def sqrt(value):
            roots.append(value)
            return math.sqrt(value)

        names = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
        monkeypatch.setattr(verify, "math", types.SimpleNamespace(**{**names, "sqrt": sqrt}))
        kernels = self.count_calls(monkeypatch, "spectrum_dd")
        audits = self.count_calls(monkeypatch, "_audit_sample")
        residual_scan(P3, BOX)
        assert BOX.count == 1000
        # one kernel call per block of AUDIT_STRIDE samples
        assert [len(args[1]) for args, _ in kernels] == [100] * 10
        assert (len(audits), len(roots)) == (10, 1000)
        for args, kwargs in audits:
            et, sigmas = args[2:]
            assert not kwargs and type(et) is float and len(sigmas) == P3.k

    @pytest.mark.usefixtures("one_cpu")
    def test_one_exponential_per_sample(self, monkeypatch):
        # the kernel reads e^t as the double math.exp(t) and returns it, and
        # the audit reads that double
        for i in range(BOX.count):
            pt = sample_point(P3, BOX, i)
            got = spectrum_dd_at(P3, pt.x, pt.t)[0]
            assert got.hex() == math.exp(pt.t).hex()
        audits = self.count_calls(monkeypatch, "_audit_sample")
        residual_scan(P3, BOX)
        assert [args[2].hex() for args, _ in audits] == [
            math.exp(sample_point(P3, BOX, i).t).hex() for i in range(0, BOX.count, 100)
        ]

    @pytest.mark.parametrize("n, m", [(3, 0), (7, 0), (5, 2)])
    def test_a_wrong_binomial_names_the_sample(self, monkeypatch, n, m):
        from sigmak.errors import ConvergenceError

        p = SolutionParams(n, m)
        binomials = list(p.arrow_binomials_dd)
        binomials[p.k - 1] = dd_add(binomials[p.k - 1], DD_ONE)
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
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        calls = []
        exact = conftest.arrow_sigmas

        def perturbed(binomials, powers, tr, det):
            if len(calls) >= first_perturbed:
                det = dd_mul(det, (1.0, 1e-20))
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
        # the audit forms the integer Hessian's parts once per audited sample
        from sigmak import verify

        p = derive_constants(15)
        parts, exact = [], verify.exact_hessian

        def recorded(*args):
            parts.append(exact(*args))
            return parts[-1]

        monkeypatch.setattr(verify, "exact_hessian", recorded)
        residual_scan(p, dataclasses.replace(BOX, count=101))
        assert len(parts) == 2
        for scale, alpha, cross, corner in parts:
            assert len(cross) == p.n_base - 1
            assert all(type(v) is int for v in (scale, alpha, *cross, corner))


    def test_dummy_coordinates_do_not_loosen_the_sigma_bound(self):
        # the kernel rounds the n core eigenvalues, never the m zeros, so the
        # bound's unit counts n: at m = 120 a sigma_1 planted 10 times the
        # m = 0 tolerance off fails, where a unit of n + m = 123 eigenvalues
        # was 41 times wider and let it pass
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        pt = sample_point(P3, BOX, 0)

        def gap_and_tolerance(p, shift):
            et, _, sigmas = spectrum_dd_at(p, pt.x, pt.t)
            planted = [dd_add(sigmas[0], (shift, 0.0)), *sigmas[1:]]
            with pytest.raises(ConvergenceError, match="^structured sigma_1 disagrees"):
                verify._audit_sample(p, list(pt.x), et, planted)
            try:
                verify._audit_sample(p, list(pt.x), et, planted)
            except ConvergenceError as exc:
                return self.gap_and_tolerance(str(exc))

        wide = SolutionParams(3, 120)
        gap, tol = gap_and_tolerance(P3, 1e-12)
        assert gap_and_tolerance(wide, 1e-12) == (gap, tol)
        gap, _ = gap_and_tolerance(wide, 10.0 * tol)
        assert tol < gap < (wide.total_dim / wide.n_base) * tol


class TestAuditScale:
    """The scale e_j(|lambda|) of the audit's sigma bound, which the audit
    reads off exact_hessian's integers with no root, is e_j over the
    absolute values of the closed-form eigenvalues (conftest's
    composed_eigenvalues_dd) within 1e-14 relative."""

    CASES = [
        (SolutionParams(n, m), SampleBox(3.0, (-2.0, 2.0), count=10, seed=n + 100 * m))
        for n in range(3, 32, 2) for m in (0, 2)
    ] + [
        (P3, SampleBox(2e49, (-2.0, 2.0), count=40, seed=5)),
        (derive_constants(11), SampleBox(4e12, (-2.0, 2.0), count=40, seed=5)),
        (derive_constants(5), SampleBox(1e12, (-2.0, 2.0), count=40, seed=0)),
        (P3, SampleBox(3.0, (27.0, 28.0), count=40, seed=0)),
    ]

    @pytest.mark.parametrize("p, box", CASES, ids=[
        f"n{p.n_base}-m{p.m}-x{b.x_radius:g}-t{b.t_range[0]:g}" for p, b in CASES
    ])
    def test_the_exact_scale_is_e_j_of_the_absolute_roots(self, monkeypatch, p, box):
        from sigmak import verify
        from sigmak.symfunc import elementary_symmetric

        arrows, exact = [], verify._arrow_sigmas

        def recorded(*args):
            arrows.append(exact(*args))
            return arrows[-1]

        monkeypatch.setattr(verify, "_arrow_sigmas", recorded)
        for i in range(box.count):
            pt = sample_point(p, box, i * 100)
            et, _, sigmas = spectrum_dd_at(p, pt.x, pt.t)
            arrows.clear()
            verify._audit_sample(p, list(pt.x), et, sigmas)
            scale = verify.exact_hessian(p, list(pt.x), et)[0]
            # the audit's one _arrow_sigmas call gives the exact sigmas, then
            # the scale, both times D^j
            assert len(arrows) == 1 and len(arrows[0]) == 2
            lam = composed_eigenvalues_dd(p, pt.x, pt.t)
            want = elementary_symmetric([abs(hi + lo) for hi, lo in lam])
            for j, (size, e_j) in enumerate(zip(arrows[0][1], want), start=1):
                assert size / scale**j == pytest.approx(e_j, rel=1e-14), (i, j)


class TestExactAudit:
    """_audit_sample decides with no tolerance, from the parts of the integer
    arrow N = D M at the sample's point, that sigma_k(N) is D^k and that
    sigma_1..sigma_(k-1) are positive, and names what fails."""

    @staticmethod
    def audit(p, x, t):
        from sigmak.verify import _audit_sample

        et, _, sigmas = spectrum_dd_at(p, x, t)
        _audit_sample(p, list(x), et, sigmas)

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
        # so the values coincide; the arrow still decides N's whole spectrum,
        # as at every other point
        audits = TestSpectrumAudit.count_calls(monkeypatch, "_audit_sample")
        p = SolutionParams(n, m)
        for t in (-1.5, 0.0, 1.5):
            self.audit(p, (0.0,) * (n - 1), t)
        assert len(audits) == 3

    LEMMA_CASES = [
        (SolutionParams(n, m), SampleBox(3.0, (-2.0, 2.0), count=3, seed=n + 100 * m))
        for n in range(3, 14, 2) for m in (0, 2)
    ] + [
        (P3, SampleBox(2e49, (-2.0, 2.0), count=3, seed=5)),
        (derive_constants(5), SampleBox(1e12, (-2.0, 2.0), count=3, seed=0)),
        (P3, SampleBox(3.0, (27.0, 28.0), count=3, seed=0)),
    ]

    @pytest.mark.parametrize("p, box", LEMMA_CASES, ids=[
        f"n{p.n_base}-m{p.m}-x{b.x_radius:g}-t{b.t_range[0]:g}" for p, b in LEMMA_CASES
    ])
    def test_an_arrow_has_the_closed_forms_characteristic_polynomial(self, p, box):
        # the lemma that the audit rests on, at audited samples and at x = 0:
        # sigma_1..sigma_d of N, laid out from exact_hessian's parts, from the
        # trace recursion over ints, are the coefficients of
        # (1 + alpha y)^(n-2) (1 + tau y + delta y^2), and 0 beyond them
        import operator

        from sigmak.solution import arrow_rows, exact_hessian
        from sigmak.symfunc import faddeev_leverrier

        def exact_div(num, den):
            quotient, rest = divmod(num, den)
            assert rest == 0
            return quotient

        n, d = p.n_base, p.total_dim
        points = [sample_point(p, box, i * 100) for i in range(box.count)]
        if box.x_radius == 3.0 and p.n_base in (3, 7):
            points += [Point((0.0,) * (n - 1), t, (0.0,) * p.m) for t in (-1.5, 0.0, 1.5)]
        for pt in points:
            et = spectrum_dd_at(p, pt.x, pt.t)[0]
            _, alpha, cross, corner = exact_hessian(p, list(pt.x), et)
            tau, delta = alpha + corner, alpha * corner - sum(c * c for c in cross)
            want = [1]
            for factor in [(1, alpha)] * (n - 2) + [(1, tau, delta)]:
                product = [0] * (len(want) + len(factor) - 1)
                for i, f in enumerate(factor):
                    for j, w in enumerate(want):
                        product[i + j] += f * w
                want = product
            rows = arrow_rows(alpha, cross, corner, p.m, 0)
            got = faddeev_leverrier(rows, operator.add, operator.mul, exact_div, 0)
            assert got == want[1:] + [0] * (d - n), pt

    @staticmethod
    def plant(monkeypatch, p, x, t, planted):
        """Let the audit at (x, t) read the parts that planted(alpha, cross,
        corner) returns, as (alpha, cross, corner), in place of
        exact_hessian's, over exact_hessian's scale."""
        from sigmak import verify
        from sigmak.solution import exact_hessian

        scale, *parts = exact_hessian(p, list(x), spectrum_dd_at(p, x, t)[0])
        parts = planted(*parts)
        monkeypatch.setattr(verify, "exact_hessian", lambda *args: (scale, *parts))

    @pytest.mark.parametrize("n, m", [(n, m) for n in (3, 5, 7) for m in range(3)])
    def test_at_the_origin_only_the_true_multiset_passes(self, monkeypatch, n, m):
        # at x = 0, N is diagonal: alpha (n - 1 times), the corner and m
        # zeros, and the quadratic's roots are alpha and the corner; each
        # arrow whose alpha and corner are drawn from {alpha, corner, 0} is
        # planted, and the audit refuses all but N's own
        from sigmak.errors import ConvergenceError
        from sigmak.solution import exact_hessian

        p = SolutionParams(n, m)
        x, t = (0.0,) * (n - 1), 0.4
        _, alpha, _, corner = exact_hessian(p, list(x), spectrum_dd_at(p, x, t)[0])
        assert len({alpha, corner, 0}) == 3
        passed = []
        for pair in itertools.product((alpha, corner, 0), repeat=2):
            self.plant(monkeypatch, p, x, t, lambda _, cross, __: (pair[0], cross, pair[1]))
            try:
                self.audit(p, x, t)
            except ConvergenceError as exc:
                assert re.match(r"exact sigma_\d+\(N\) ", str(exc))
            else:
                passed.append(pair)
        assert passed == [(alpha, corner)]

    @pytest.mark.parametrize("n, m, roots", [
        (3, 1, "0, tau"), (5, 2, "0, tau"), (3, 0, "tau, tau"), (5, 2, "tau, tau"),
    ], ids=["delta-n3-m1", "delta-n5-m2", "disc-n3", "disc-n5-m2"])
    def test_a_planted_coincident_spectrum_is_decided_by_sigma_k(self, monkeypatch, n, m, roots):
        # arrow parts whose quadratic has the roots 0 and tau (delta = 0,
        # where 0 is also the w block's value: the corner is |c|^2 / alpha)
        # or alpha twice (tau^2 = 4 delta: c = 0 and the corner is alpha):
        # sigma_k(N) = D^k, the claim, is what fails
        from sigmak.errors import ConvergenceError

        def planted(alpha, cross, corner):
            if roots == "0, tau":
                corner, rest = divmod(sum(c * c for c in cross), alpha)
                assert rest == 0
            else:
                cross, corner = [0] * len(cross), alpha
            tau, delta = alpha + corner, alpha * corner - sum(c * c for c in cross)
            assert delta == 0 if roots == "0, tau" else tau * tau == 4 * delta
            return alpha, cross, corner

        p = SolutionParams(n, m)
        x = (0.75, -1.5, 2.0, 0.25)[: n - 1]
        self.plant(monkeypatch, p, x, 0.4, planted)
        audits = TestSpectrumAudit.count_calls(monkeypatch, "_audit_sample")
        k = p.k
        with pytest.raises(
            ConvergenceError,
            match=rf"^exact sigma_{k}\(N\) - D\^{k} is -?[0-9.e+-]+ D\^{k}, not 0$",
        ):
            self.audit(p, x, 0.4)
        assert len(audits) == 1

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

    X7 = (0.75, -1.5, 2.0, 0.25, -3.0, 1.0)

    @pytest.mark.parametrize("n, m, x, part", [
        (7, 0, X7, "alpha"), (3, 0, X7, "alpha"), (3, 0, X7, "cross"), (7, 0, X7, "cross"),
        (5, 2, X7, "cross"), (7, 0, X7, "corner"), (5, 2, X7, "corner"),
        (3, 0, (0.0, 0.0), "cross"), (3, 0, (0.0, 0.0), "alpha"), (3, 0, (0.0, 0.0), "corner"),
    ], ids=[
        "x-diagonal", "x-diagonal-n3", "cross", "cross-n7", "cross-n5-m2", "corner",
        "corner-n5-m2", "origin", "x-diagonal-origin", "corner-origin",
    ])
    def test_a_planted_wrong_entry_is_named(self, monkeypatch, n, m, x, part):
        # alpha (the x diagonal), one cross entry or the corner off by one:
        # sigma_k = g_k + g_(k-1) tau + g_(k-2) delta moves, and the claim
        # sigma_k(N) = D^k is what fails
        from sigmak.errors import ConvergenceError

        def planted(alpha, cross, corner):
            if part == "alpha":
                alpha += 1
            elif part == "cross":
                cross = [cross[0] + 1, *cross[1:]]
            else:
                corner += 1
            return alpha, cross, corner

        p = SolutionParams(n, m)
        k = p.k
        self.plant(monkeypatch, p, x[: n - 1], 0.4, planted)
        with pytest.raises(
            ConvergenceError,
            match=rf"^exact sigma_{k}\(N\) - D\^{k} is -?[0-9.e+-]+ D\^{k}, not 0$",
        ):
            self.audit(p, x[: n - 1], 0.4)

    @pytest.mark.parametrize("factor, shown", [(-1, "-[0-9.e+]+"), (0, "0")])
    def test_a_sigma_that_is_not_positive_is_named(self, monkeypatch, factor, shown):
        # sigma_1 of the closed form's spectrum read as negative, or as 0,
        # which is outside the cone too
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        exact = verify._arrow_sigmas

        def scaled_first(*args):
            sigmas, sizes = exact(*args)
            sigmas[0] *= factor
            return sigmas, sizes

        monkeypatch.setattr(verify, "_arrow_sigmas", scaled_first)
        with pytest.raises(
            ConvergenceError, match=rf"^exact sigma_1\(N\) is {shown} D\^1, not positive$"
        ):
            self.audit(derive_constants(5), (0.5, -1.0, 2.0, 0.25), 0.1)


class TestBoxGuard:
    """residual_scan checks its box once (solution._check_overflow), with the
    margin BOX_MARGIN on its two exponentials, and no sample again: on boxes
    bisected to the guard's edge, the box's bound exceeds the per-point
    bound of every sample, which the kernel once checked each sample by,
    by over 2^-42 relative, and the next box is refused."""

    @staticmethod
    def check_box(p, box):
        # the one overflow check that residual_scan makes
        from sigmak.solution import BOX_MARGIN, _check_overflow

        _check_overflow(p, box.x_radius, *box.t_range, BOX_MARGIN, "the box")

    @classmethod
    def passes(cls, p, box):
        try:
            cls.check_box(p, box)
        except OverflowError:
            return False
        return True

    @classmethod
    def edge(cls, p, box_at, good, bad):
        # adjacent floats good and bad with box_at(good) passing the box
        # guard and box_at(bad) refused
        assert cls.passes(p, box_at(good)) and not cls.passes(p, box_at(bad))
        while (mid := good + (bad - good) / 2) not in (good, bad):
            if cls.passes(p, box_at(mid)):
                good = mid
            else:
                bad = mid
        return good, bad

    @staticmethod
    def samples(p, box):
        # seeded samples, and the scan's mapping at the ends of u in [0, 1)
        # for every coordinate: |x_i| = x_radius at u = 0, the largest t
        t_lo, t_hi = box.t_range
        points = [(pt.x, pt.t) for pt in (sample_point(p, box, i) for i in range(20))]
        for u in (0.0, 1.0 - 2.0**-53):
            x = [-box.x_radius + 2.0 * box.x_radius * u] * (p.n_base - 1)
            points.append((x, t_lo + (t_hi - t_lo) * u))
        return points

    @staticmethod
    def point_bound(p, x, t, inflate=1.0):
        # 1 + F of the per-point radius guard that the scan's kernel once
        # ran, on E and 1 / ph for the leading part ph of its E^(k-1), both
        # times inflate (F as solution._check_overflow forms it)
        from conftest import dd_terms

        ph = dd_terms(p, x, t)[0][-1][0]
        r, et, e_decay = max(map(abs, x)), math.exp(t) * inflate, inflate / ph
        return 1.0 + (
            (p.n_base - 1) * (2.0 + 4.0 * r + r * r) * et
            + e_decay / p.A_float
            - p.h_coeffs_float[1] * et
        )

    @pytest.mark.parametrize("n", range(3, 32, 2))
    def test_the_box_covers_every_sample_at_the_edge(self, monkeypatch, n):
        from sigmak import solution
        from sigmak.solution import OVERFLOW_EXPONENT

        # the 1 + F of the box's radius guard, which it takes log2 of
        seen = []

        def log2(value):
            seen.append(value)
            return math.log2(value)

        names = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
        monkeypatch.setattr(solution, "math", types.SimpleNamespace(**{**names, "log2": log2}))
        p = derive_constants(n)
        limit = OVERFLOW_EXPONENT / (p.k - 1)
        edges = [
            # x_radius, the last t_max and the first t_min the guard lets through
            (lambda r: SampleBox(r, (-2.0, 2.0), 1, 0), 1.0, 1e300),
            (lambda s: SampleBox(3.0, (s - 1.0, s), 1, 0), 0.0, limit),
            (lambda s: SampleBox(3.0, (s, s + 1.0), 1, 0), 0.0, 1.0 - limit),
        ]
        for box_at, good, bad in edges:
            good, bad = self.edge(p, box_at, good, bad)
            box = box_at(good)
            seen.clear()
            self.check_box(p, box)
            (by_box,) = seen
            points = self.samples(p, box)
            for x, t in points:
                assert by_box > self.point_bound(p, x, t) * (1.0 + 2.0**-42), (x, t)
            # the edge is tight: some sample is refused once its two
            # exponentials grow by 2^-20
            assert any(
                n * math.log2(self.point_bound(p, x, t, inflate=1.0 + 2.0**-20)) > 996.0
                for x, t in points
            )
            with pytest.raises(
                OverflowError, match=r"^x_radius = .* with t_range = .* lets the Hessian norm"
            ):
                residual_scan(p, box_at(bad))

    @pytest.mark.parametrize("n", [3, 5, 7, 31, 101, 687, 689, 995])
    def test_a_box_toward_the_exponent_limit_is_refused_whole(self, n):
        # a t_max one float below the exponent limit 700 / (k - 1) passes the
        # exponent guard, and the radius guard refuses its box even at
        # x_radius 1e-300; so no sample's rounded t, at most 1050 2^-52 past
        # t_max, reaches the limit in a box that passes
        from sigmak.solution import OVERFLOW_EXPONENT

        p = derive_constants(n)
        t_max = math.nextafter(OVERFLOW_EXPONENT / (p.k - 1), 0.0)
        box = SampleBox(x_radius=1e-300, t_range=(0.0, t_max), count=1, seed=0)
        with pytest.raises(
            OverflowError, match=rf"stay finite only while \(1 \+ that\)\^{n} <= 2\^996$"
        ):
            residual_scan(p, box)

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("n", [3, 7])
    def test_no_sample_is_checked_again(self, monkeypatch, n):
        # the box's one overflow check, by residual_scan; the kernel calls
        # no guard
        from sigmak import solution

        counts = [
            TestSpectrumAudit.count_calls(monkeypatch, "_check_overflow", module)
            for module in (None, solution)
        ]
        residual_scan(derive_constants(n), BOX)
        assert BOX.count == 1000
        assert [len(calls) for calls in counts] == [1, 0]


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
            # samples 342, 607 and 837 fail the float cone rule at j = k: one
            # in each of three ranges, and in both of two
            assert (reports[0].cone_failures, reports[0].lemma_failures) == (3, 3)

    def test_the_merge_follows_the_one_loop_rules(self, visible_cpus, monkeypatch):
        # every sample's sigma_k is 1 + 2^-60, so the one-loop argmax is
        # sample 0 and a later range may not take it on a tie; sample 900,
        # in the last of three ranges, has the smallest sigma_1
        from sigmak import verify

        exact = verify.spectrum_dd
        smallest = sample_point(P3, BOX, 900).t

        def tied(p, points):
            for et, terms, sigmas in exact(p, points):
                if et == math.exp(smallest):  # e^t of sample 900
                    sigmas[0] = (0.5, 0.0)
                yield et, terms, sigmas[:-1] + [(1.0, 2.0**-60)]

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
        # the first range, this process's, is PARENT_HEAD_START samples
        # longer than each worker's, which split the rest evenly
        from sigmak.verify import MIN_RANGE_SAMPLES, PARENT_HEAD_START, _sample_ranges

        assert PARENT_HEAD_START == 50
        assert _sample_ranges(1000, 3) == [(0, 366), (366, 683), (683, 1000)]
        assert _sample_ranges(1000, 2) == [(0, 525), (525, 1000)]
        edge = PARENT_HEAD_START + 2 * MIN_RANGE_SAMPLES
        for count, ranges in (
            (3 * MIN_RANGE_SAMPLES - 1, 2), (2 * MIN_RANGE_SAMPLES - 1, 1),
            (edge + MIN_RANGE_SAMPLES, 3), (edge + MIN_RANGE_SAMPLES - 1, 2),
            (edge, 2), (edge - 1, 1),
        ):
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
        # recognized by its t, and raises a ConvergenceError whose message
        # names its index, or runs `action` if one is given
        from sigmak import verify
        from sigmak.errors import ConvergenceError

        planted = {sample_point(p, box, i).t: i for i in indices}
        exact = verify.spectrum_dd

        def failing(p, points):
            for (_, t), out in zip(points, exact(p, points)):
                if t in planted:
                    if action is not None:
                        action()
                    raise ConvergenceError(f"planted at {planted[t]}")
                yield out

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
        named = sample_point(P3, BOX, first)
        assert str(errors[1]) == f"sample {first} at {named}: planted at {first}"

    def test_a_worker_audits_by_the_global_sample_index(self, visible_cpus, monkeypatch):
        # sample 700 is the 18th of the third range of three: an audit of
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
            "sigmak: error: the scan worker of samples 683 to 999 ended without a "
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


class TestNonFiniteValues:
    """A non-finite residual, sigma or Frobenius norm stops the scan with a
    ConvergenceError naming the first sample that has one, however many
    CPUs run it: a nan residual compares larger than no other, so unchecked
    it would leave a report of the other samples, or no argmax at all when
    every sample has one."""

    @staticmethod
    def plant(monkeypatch, where, samples):
        # a nan sigma_k, or a nan tr (and with it fro), at the samples
        # `samples` (all when None), each recognized by its t
        from sigmak import verify

        planted = None if samples is None else {sample_point(P3, BOX, i).t for i in samples}
        exact = verify.spectrum_dd

        def kernel(p, points):
            for (_, t), (et, terms, sigmas) in zip(points, exact(p, points)):
                if planted is None or t in planted:
                    if where == "sigma_k":
                        sigmas[-1] = (math.nan, 0.0)
                    else:
                        terms = (terms[0], (math.nan, 0.0), *terms[2:])
                yield et, terms, sigmas

        monkeypatch.setattr(verify, "spectrum_dd", kernel)

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("where, shown", [
        ("sigma_k", r"\|sigma_2 - 1\| = nan"), ("tr", r"fro = nan"),
    ], ids=["sigma_k", "fro"])
    @pytest.mark.parametrize("samples, first", [([700], 700), (None, 0)], ids=["one", "all"])
    def test_the_first_non_finite_sample_is_named(
        self, visible_cpus, monkeypatch, cpus, where, shown, samples, first
    ):
        from sigmak.errors import ConvergenceError

        self.plant(monkeypatch, where, samples)
        visible_cpus(cpus)
        with pytest.raises(ConvergenceError, match=f"non-finite value: .*{shown}") as info:
            residual_scan(P3, BOX)
        assert str(info.value).startswith(f"sample {first} at {sample_point(P3, BOX, first)}: ")
        TestSampleRanges.assert_no_children()

    def test_the_cli_exits_2_naming_the_sample(self, one_cpu, monkeypatch, capsys):
        from sigmak.cli import run

        self.plant(monkeypatch, "sigma_k", [37])
        assert run(["verify", "-n", "3", "--samples", "1000", "--seed", "42"]) == 2
        err = capsys.readouterr().err
        named = f"sample 37 at {sample_point(P3, BOX, 37)}: "
        assert err.startswith(f"sigmak: numerical failure: {named}non-finite value: ")


class TestVerdictsAgainstTheRoots:
    """The scan judges a sample from its spectrum's invariants, not from its
    eigenvalues: fro from (n - 2) a^2 + tr^2 - 2 det, the lemma verdict as
    sigma_k's positivity and the n = 3 phase as arg (1 + i a) (1 - det +
    i tr).  One-sample ranges of seeded samples at odd n = 3..31, m in
    {0, 2}, and on boxes out to x_radius 2e49 (n = 3) and 4e12 (n = 11) and
    t in [27, 28], take each verdict against cone_flags and sl_phase on the
    closed-form eigenvalues of the kernel's composition."""

    CASES = [
        (SolutionParams(n, m), SampleBox(3.0, (-2.0, 2.0), count=30, seed=n + 100 * m))
        for n in range(3, 32, 2) for m in (0, 2)
    ] + [
        (P3, SampleBox(2e49, (-2.0, 2.0), count=100, seed=5)),
        (P3, SampleBox(3.0, (27.0, 28.0), count=100, seed=6)),
        (derive_constants(11), SampleBox(4e12, (-2.0, 2.0), count=30, seed=7)),
    ]

    @pytest.mark.parametrize("p, box", CASES, ids=[
        f"n{p.n_base}-m{p.m}-x{b.x_radius:g}-t{b.t_range[0]:g}" for p, b in CASES
    ])
    def test_scan_verdicts_match_the_eigenvalues(self, monkeypatch, p, box):
        from sigmak import cone, verify
        from sigmak.cone import cone_flags

        norms = []

        def recorded(sigmas, fro):
            norms.append(fro)
            return cone.sigma_verdicts(sigmas, fro)

        monkeypatch.setattr(verify, "sigma_verdicts", recorded)
        monkeypatch.setattr(verify, "_audit_sample", lambda *args: None)
        failures = 0
        for i in range(box.count):
            pt = sample_point(p, box, i)
            e = spectrum_dd_at(p, pt.x, pt.t)[2]
            lam = [hi + lo for hi, lo in composed_eigenvalues_dd(p, pt.x, pt.t)]
            sigmas = [hi + lo for hi, lo in e]
            neg, in_cone, lemma = cone_flags(lam, sigmas, p.k)
            assert neg <= 1
            if p.n_base == 3 and p.m == 0:
                # the scan's phase fails by more than 1e-15 off sl_phase(lam)
                monkeypatch.setattr(verify, "CRITICAL_PHASE_N3", sl_phase(lam))
                monkeypatch.setattr(verify, "PHASE_TOL", 1e-15)
            norms.clear()
            _, _, cones, lemmas, _, phases = verify._scan_range(p, box, i, i + 1)
            assert (cones, lemmas, phases) == (not in_cone, not lemma, 0), i
            fro = math.sqrt(sum([v * v for v in lam]))
            assert abs(norms[0] - fro) <= 4 * math.ulp(fro), i
            failures += cones
        if p.n_base >= 11 and box.x_radius == 3.0:
            assert failures > 0  # samples past the float rule's threshold


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

        def recorded_kernel(p, points):
            for (x, t), out in zip(points, kernel(p, points)):
                seen.append(("sample", list(x), t))
                yield out

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

    def test_dummy_coordinates_draw_no_words(self, monkeypatch):
        # at m = 2000 a range draws the n words of each sample's x block and
        # t, one block at a time, and none of its 2000 w words; the x and t
        # of every sample are still sample_point's
        from sigmak import verify

        p = SolutionParams(3, 2000)
        drawn, seen = [], []
        words, kernel = verify.splitmix64_words, verify.spectrum_dd

        def counted(*args, **kwargs):
            out = words(*args, **kwargs)
            drawn.append(len(out))
            return out

        def recorded_kernel(p, points):
            seen.extend((list(x), t) for x, t in points)
            return kernel(p, points)

        monkeypatch.setattr(verify, "splitmix64_words", counted)
        monkeypatch.setattr(verify, "spectrum_dd", recorded_kernel)
        verify._scan_range(p, BOX, 150, 400)
        assert drawn == [300, 300, 150]
        monkeypatch.setattr(verify, "splitmix64_words", words)
        expected = []
        for i in range(150, 400):
            pt = sample_point(p, BOX, i)
            expected.append((list(pt.x), pt.t))
        assert seen == expected

    def test_memory_does_not_grow_with_dummy_coordinates(self):
        # the words of one block of 100 samples at m = 2000 took ~3.2 MB of
        # lanes each while all 2003 words of a sample were drawn; the x and t
        # words alone peak as at m = 0
        import tracemalloc

        from sigmak import verify

        p = SolutionParams(3, 2000)
        verify._scan_range(p, BOX, 0, 101)  # the audit's first-call set-up
        tracemalloc.start()
        try:
            verify._scan_range(p, BOX, 3000, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_memory_is_bounded_by_one_block(self):
        # one block of 100 n = 3 samples (300 words in 128-bit lanes, their
        # list and the mix's temporaries) peaks near 66 kB, the lanes cached
        # for 300 words built before; the 6000 words of the whole range drawn
        # at once peak near 820 kB, their cached lanes included (CPython 3.11)
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


class TestOnePassJudgement:
    """The scan judges each sample in one pass, with the residual's float
    operations written out and one call into cone; its partial report is
    conftest's reference_scan_range's, which judges the samples statement
    by statement, over the kernel's composition, bit for bit: the residual
    and min_sigma_j by float.hex, the argmax and the counts.  One range
    starts mid-block, one straddles an audit and one holds a single sample,
    at every odd n = 3..31, m in {0, 2}, and on the huge-entry boxes."""

    CASES = [
        (SolutionParams(n, m), SampleBox(3.0, (-2.0, 2.0), count=1000, seed=n + 100 * m))
        for n in range(3, 32, 2) for m in (0, 2)
    ] + [
        (P3, SampleBox(2e49, (-2.0, 2.0), count=1000, seed=5)),
        (derive_constants(11), SampleBox(4e12, (-2.0, 2.0), count=1000, seed=7)),
        (P3, SampleBox(3.0, (27.0, 28.0), count=1000, seed=6)),
    ]

    @staticmethod
    def exact(report):
        resid, argmax, cones, lemmas, sigma, phases = report
        return resid.hex(), argmax, cones, lemmas, sigma.hex(), phases

    @pytest.mark.parametrize("start, stop", [(0, 1), (37, 450), (99, 101)])
    @pytest.mark.parametrize("p, box", CASES, ids=[
        f"n{p.n_base}-m{p.m}-x{b.x_radius:g}-t{b.t_range[0]:g}" for p, b in CASES
    ])
    def test_the_report_is_the_references_bit_for_bit(self, p, box, start, stop):
        from sigmak import verify

        expected = self.exact(reference_scan_range(p, box, start, stop))
        assert self.exact(verify._scan_range(p, box, start, stop)) == expected


class TestScanNegativeControls:
    """The scan's residual fails when the solution is wrong, and it needs one
    consistent e^t, not an accurate one.  The exact audit of sample 0 stops
    such a scan first, so the gate controls run with the audit stubbed out,
    and each has a twin that asserts what the audit names."""

    DEFAULT_BOX = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=2000, seed=0)

    @staticmethod
    def perturbed_growth(n):
        # the e^t coefficient of h'', -B/A, off by one part in 10^6
        p = SolutionParams(n)
        object.__setattr__(p, "h2_growth_dd", dd_mul(p.h2_growth_dd, (1.0 + 1e-6, 0.0)))
        return p

    @staticmethod
    def two_exponentials(monkeypatch):
        # e^(-(k-1)t) as math.exp(-(k-1)t): each exponential is within an ulp
        # of its own value, but not the reciprocal of the other's power; the
        # scan runs the kernel's composition, with that term replaced
        import conftest
        from sigmak import verify

        exact = conftest.dd_terms

        def terms(p, x, t):
            et_powers, _, r2et = exact(p, x, t)
            e_decay = (math.exp(-(p.k - 1) * t), 0.0)
            h2 = dd_add(
                dd_mul(p.h2_decay_dd, e_decay), dd_mul(p.h2_growth_dd, et_powers[0])
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
        # the exact Hessian reads the exact B/A; the structured sigma_1 = g_1
        # + tr carries h'' off by 1e-6 of its e^t term
        from sigmak.errors import ConvergenceError

        p = self.perturbed_growth(n)
        with pytest.raises(ConvergenceError, match="structured sigma_1 disagrees") as info:
            residual_scan(p, dataclasses.replace(self.DEFAULT_BOX, count=500))
        text = str(info.value)
        assert text.startswith(f"sample 0 at {sample_point(p, self.DEFAULT_BOX, 0)}: ")
        gap, tol = TestSpectrumAudit.gap_and_tolerance(text)
        assert 1e-9 < gap < 1e-3 and gap > 1e10 * tol

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
        with pytest.raises(ConvergenceError, match="structured sigma_1 disagrees") as info:
            residual_scan(p, self.DEFAULT_BOX)
        text = str(info.value)
        assert text.startswith(f"sample 0 at {sample_point(p, self.DEFAULT_BOX, 0)}: ")
        gap, tol = TestSpectrumAudit.gap_and_tolerance(text)
        assert 1e-20 < gap < 1e-12 and gap > 1e10 * tol


class TestResidualAgainstExactArithmetic:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_dd_residual_equals_exact_rational_residual(self, n):
        # every double-double Hessian entry is the exact rational hi + lo, so
        # exact Fraction minors give the true sigma_k of the same matrix; the
        # scan's closed-form residual must match it, not merely be small
        from fractions import Fraction

        p = derive_constants(n)
        box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=5, seed=77)
        for i in range(5):
            pt = sample_point(p, box, i)
            _, _, sigmas = spectrum_dd_at(p, pt.x, pt.t)
            reported = to_float(dd_sub(sigmas[p.k - 1], DD_ONE))
            exact = [[Fraction(e[0]) + Fraction(e[1]) for e in row] for row in dd_hessian(p, pt)]
            truth = float(sigma_brute(exact, p.k) - 1)
            assert abs(reported - truth) < 1e-24


class TestScanSigmasAgainstFloatOracles:
    @pytest.mark.parametrize("n, m", [(3, 0), (5, 0), (7, 0), (3, 2)])
    def test_dd_sigmas_match_charpoly_and_minors(self, n, m):
        # sigma_1..sigma_d of the scan's closed-form dd eigenvalues; the float
        # charpoly and the principal-minor sums must agree at moderate points
        p = SolutionParams(n, m)
        box = SampleBox(x_radius=1.0, t_range=(-1.0, 1.0), count=20, seed=11)
        for i in range(box.count):
            pt = sample_point(p, box, i)
            lam = composed_eigenvalues_dd(p, pt.x, pt.t)
            e = dd_elementary_symmetric(lam)
            hess = eval_jet(p, pt).hessian
            fro = frobenius_norm(hess)
            charpoly = charpoly_sigmas(hess)
            for j in range(1, p.total_dim + 1):
                tol = 1e-10 * (1.0 + fro**j)
                by_dd = to_float(e[j - 1])
                assert by_dd == pytest.approx(charpoly[j - 1], abs=tol)
                assert by_dd == pytest.approx(sigma_minors(hess, j), abs=tol)
            assert to_float(e[p.k - 1]) == 1.0


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
