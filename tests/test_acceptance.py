"""Full-scale acceptance checks.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`) and
asserts the same condition, so the module doubles as a human-readable
checklist:

1.  golden n=3 constants are exact rationals,
2.  exact certification (sigma_k = 1 and the Garding cone) for n = 3..13
    under 10 s each,
3.  1e4-point seeded scans keep |sigma_k - 1| <= 1e-9 (core and extended),
4.  zero ellipticity failures in those scans, at most one negative eigenvalue,
5.  the sufficient cone test never contradicts the defining one (1e4 trials),
6.  the binomial cancellation happens exactly at 2k = n + 1,
7.  the n=3 phase sticks to pi/2 at every sampled point,
8.  three sigma_k algorithms and the finite-difference Hessian oracle agree,
9.  divided-difference witnesses are nonzero through degree 20,
10. verify runs are byte-identical across repeats.
"""

import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sigmak
from conftest import (
    charpoly_sigmas,
    diagonal,
    e_brute,
    fd_hessian,
    frobenius_norm,
    nonpoly_witness,
    random_rotation,
    random_symmetric,
    rotate_exactly_symmetric,
    sigma_minors,
)
from sigmak.cone import gamma_k
from sigmak.solution import (
    SolutionParams,
    cancellation_coefficient,
    derive_constants,
    eval_jet,
)
from sigmak.symbolic import verify_exact
from sigmak.symfunc import eigenvalues_symmetric, elementary_symmetric
from sigmak.verify import SampleBox, residual_scan, sample_point

SCAN_SAMPLES = 10_000
SCAN_SEED = 0


def _record(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def scan_reports():
    """The five full-scale scans, shared by criteria 3, 4 and 7."""
    cases = {
        "n=3": derive_constants(3),
        "n=5": derive_constants(5),
        "n=7": derive_constants(7),
        "n=3,m=1": SolutionParams(3, 1),
        "n=3,m=2": SolutionParams(3, 2),
    }
    box = SampleBox(
        x_radius=3.0, t_range=(-2.0, 2.0), count=SCAN_SAMPLES, seed=SCAN_SEED
    )
    return {label: residual_scan(p, box) for label, p in cases.items()}


def test_criterion_1_golden_constants():
    from fractions import Fraction

    p = derive_constants(3)
    ok = (
        p.A == Fraction(4)
        and p.B == Fraction(4)
        and p.h_coeff_decay == Fraction(1, 4)
        and p.h_coeff_growth == Fraction(-1)
        and p.k == 2
    )
    _record(
        "criterion 1 (golden n=3 constants)",
        ok,
        f"A={p.A} B={p.B} h = ({p.h_coeff_decay})e^-t + ({p.h_coeff_growth})e^t",
    )


def test_criterion_2_exact_certification():
    timings = {}
    all_ok = True
    for n in (3, 5, 7, 9, 11, 13):
        start = time.perf_counter()
        cert = verify_exact(n)
        timings[n] = time.perf_counter() - start
        all_ok = all_ok and cert.ok and timings[n] < 10.0
    detail = ", ".join(f"n={n}: {timings[n] * 1000:.0f}ms" for n in timings)
    _record("criterion 2 (exact certification n=3..13)", all_ok, detail)


def test_criterion_3_numeric_residual(scan_reports):
    worst = {label: rep.max_abs_residual for label, rep in scan_reports.items()}
    ok = all(v <= 1e-9 for v in worst.values())
    detail = ", ".join(f"{label}: {v:.2e}" for label, v in worst.items())
    _record(f"criterion 3 (max residual over {SCAN_SAMPLES} samples)", ok, detail)


def test_criterion_4_ellipticity(scan_reports):
    cone = {label: rep.cone_failures for label, rep in scan_reports.items()}
    lemma = {label: rep.lemma_failures for label, rep in scan_reports.items()}
    ok = all(v == 0 for v in cone.values()) and all(v == 0 for v in lemma.values())
    detail = (
        f"cone failures {sum(cone.values())}, lemma failures {sum(lemma.values())} "
        "(lemma = sigma_k > 0 and <= 1 negative eigenvalue at every sample)"
    )
    _record("criterion 4 (ellipticity in every scan)", ok, detail)


def test_criterion_5_lemma_soundness():
    rng = random.Random(31337)
    accepted = 0
    counterexamples = 0
    while accepted < 10_000:
        dim = rng.randrange(2, 9)
        lams = [rng.uniform(-3.0, 3.0)] + [rng.uniform(0.0, 3.0) for _ in range(dim - 1)]
        k = rng.randrange(1, dim + 1)
        fro = math.sqrt(sum(v * v for v in lams))
        if e_brute(lams, k) <= 1e-8 * (1.0 + fro**k):
            continue  # hypotheses need sigma_k > 0 with a resolvable margin
        accepted += 1
        m = rotate_exactly_symmetric(diagonal(lams), random_rotation(rng, dim))
        verdict = gamma_k(m, k)
        if not verdict.in_cone:
            counterexamples += 1
        if not verdict.lemma:
            counterexamples += 1
    _record(
        "criterion 5 (lemma soundness, 1e4 random trials)",
        counterexamples == 0,
        f"{accepted} hypothesis-satisfying matrices, {counterexamples} counterexamples",
    )


def test_criterion_6_cancellation_identity():
    bad = [
        (n, k)
        for n in range(3, 21)
        for k in range(2, n)
        if (cancellation_coefficient(n, k) == 0) != (2 * k == n + 1)
    ]
    _record(
        "criterion 6 (cancellation iff 2k = n+1, n <= 20)",
        not bad,
        f"{sum(1 for n in range(3, 21) for _ in range(2, n))} pairs checked, mismatches: {bad}",
    )


def test_criterion_7_critical_phase(scan_reports):
    rep = scan_reports["n=3"]
    _record(
        "criterion 7 (n=3 phase = pi/2 at all samples)",
        rep.phase_ok is True,
        f"phase_ok={rep.phase_ok} over {SCAN_SAMPLES} samples",
    )


def test_criterion_8_oracle_agreement():
    rng = random.Random(808)
    worst_gap = 0.0
    agree = True
    for _ in range(1000):
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
            gap = max(abs(by_minors - by_eig), abs(sv[k - 1] - by_eig))
            worst_gap = max(worst_gap, gap / tol)
            if gap > tol:
                agree = False

    p3 = derive_constants(3)
    box = SampleBox(x_radius=3.0, t_range=(-2.0, 2.0), count=100, seed=123)
    fd_ok = True
    for i in range(100):
        pt = sample_point(p3, box, i)
        closed = eval_jet(p3, pt).hessian
        fd = fd_hessian(p3, pt, 1e-5)
        if any(
            abs(f - c) > 1e-4 * (1.0 + abs(c))
            for fd_row, closed_row in zip(fd, closed)
            for f, c in zip(fd_row, closed_row)
        ):
            fd_ok = False
    _record(
        "criterion 8 (3-way sigma_k agreement + FD Hessian oracle)",
        agree and fd_ok,
        f"worst sigma gap {worst_gap:.2e} of tolerance over 1000 matrices; "
        f"FD oracle within 1e-4 at 100 points: {fd_ok}",
    )


def test_criterion_9_nonpolynomial_witness():
    failures = []
    smallest = math.inf
    for n in (3, 5, 7):
        entries = nonpoly_witness(derive_constants(n), 20)
        for d, entry in enumerate(entries, start=1):
            scaled = abs(entry) / (1.0 + (math.e - 1.0) ** (d + 1))
            smallest = min(smallest, scaled)
            if scaled <= 1e-6:
                failures.append((n, d))
    _record(
        "criterion 9 (nonzero witnesses, d <= 20, n=3,5,7)",
        not failures,
        f"smallest scaled entry {smallest:.3e}, failures: {failures}",
    )


def test_criterion_10_byte_identical_reports():
    argv = [
        sys.executable, "-m", "sigmak.cli",
        "verify", "-n", "3", "--samples", "1000", "--seed", "42",
    ]

    # the checkout's src/, as for an uninstalled package
    env = dict(os.environ, PYTHONPATH=str(Path(sigmak.__file__).resolve().parents[1]))

    def run_once() -> str:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        return re.sub(r'"elapsed_seconds": [^\n,}]+', '"elapsed_seconds": <elided>', proc.stdout)

    first = run_once()
    second = run_once()
    _record(
        "criterion 10 (byte-identical verify output)",
        first == second,
        f"repeat identical: {first == second}",
    )
