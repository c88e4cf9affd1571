"""Workloads of the sigmak benchmark: seeded inputs, timed steps, gates.

A workload turns the benchmark seed into inputs (``setup``) and then runs
closed-loop *steps* on them (``step``): one client, one thread, each call
waiting for the previous one.  A step is one call into sigmak, through
``sigmak.cli.run`` (the code path of the ``sigmak`` command) or the public
functions of ``sigmak.symbolic``.  Only the program calls are timed; every
output is then checked by a gate, outside the timed region.

Why these workloads:

* ``scan_n7``: long ``verify -n 7`` scans, where the double-double Jacobi is
  about four fifths of a sample: a faster scan kernel must show here.
* ``scan_n3_short``: many short ``verify -n 3`` scans, the paper's core case
  with the phase check.  Per-call CLI, exact-gate and JSON costs weigh much
  more, so a kernel with a large fixed set-up cost shows here as a loss.
* ``exact_ladder``: exact certification of sigma_k = 1 for n = 3..13 plus
  perturbed-constant controls; only ``sigmak.symbolic`` works, and the
  per-n cost shows the shape of the algorithm.
* ``matrix_checks``: ``cone-check`` and ``phase-check`` on seeded matrix
  files; the float Jacobi and ``gamma_k_*`` layers, which no scan calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from sigmak import cli, derive_constants, symbolic
from sigmak.errors import CapabilityError

HALF_PI = math.pi / 2
PHASE_TOL = 1e-9
# A cone verdict is judged only where every e_j of the oracle is further than
# this (relative to 1 + ||M||_F^j) from zero; closer cases count as undecided.
UNDECIDED_REL = 1e-8


def derive_seed(seed: int, tag: str, index: int) -> int:
    """A 64-bit seed for call `index` of workload `tag`, from the run seed."""
    digest = hashlib.sha256(f"{seed}/{tag}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def canonical(payload: dict) -> str:
    """The payload without its elapsed time, as comparable text."""
    return json.dumps(
        {k: v for k, v in payload.items() if k != "elapsed_seconds"}, sort_keys=True
    )


@dataclass
class Step:
    """Outcome of one timed step."""

    key: object  # identifies the input: repeats of a key must give equal digests
    seconds: float  # wall time of the program calls only
    items: int  # work items: scan samples, check calls or certifications
    checks: int  # ops gated in this step
    failures: list[str] = field(default_factory=list)  # one reason per failed op
    digest: str = ""
    undecided: int = 0  # cone verdicts too close to the boundary to judge
    norm: float = 1.0  # speed-gauge factor: normalized seconds / raw seconds
    parts: dict[str, float] = field(default_factory=dict)  # per-part seconds


def cli_call(argv: list[str], tracer) -> tuple[int, str, str, float]:
    """Run ``sigmak <argv>`` in-process; return code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        with tracer.span("cli.run"):
            code = cli.run(argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def parse_payload(code: int, out: str, err: str) -> tuple[dict | None, str | None]:
    """The JSON payload of a CLI call, or the reason it has none."""
    if code == 2:
        return None, f"exit 2: {err.strip()}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"exit {code}, output is not JSON: {exc}"


class ScanWorkload:
    """``sigmak verify -n N --samples S`` on the CLI's default box.

    Call i uses seed ``derive_seed(seed, name, i % distinct)``, so with a
    small ``distinct`` the same seeds come round again and their payloads
    are compared byte for byte.
    """

    item = "sample"

    def __init__(self, name: str, n: int, samples: int, distinct: int):
        self.name = name
        self.n = n
        self.samples = samples
        self.distinct = distinct

    def setup(self, seed: int, workdir: Path) -> list[list[str]]:
        return [
            ["verify", "-n", str(self.n), "--samples", str(self.samples),
             "--seed", str(derive_seed(seed, self.name, i))]
            for i in range(self.distinct)
        ]

    def step(self, inputs, i: int, tracer) -> Step:
        key = i % len(inputs)
        code, out, err, seconds = cli_call(inputs[key], tracer)
        payload, problem = parse_payload(code, out, err)
        failures = [problem] if problem else check_verify(payload, code, self.samples)
        digest = canonical(payload) if payload is not None else ""
        return Step(key, seconds, self.samples, 1, failures, digest)


def check_verify(payload: dict, code: int, samples: int) -> list[str]:
    """Gate of one ``verify`` call: certified, passed, and its numbers agree."""
    report = payload.get("report", {})
    if code != 0:
        return [f"verify exited {code}"]
    if payload.get("checks_passed") is not True:
        return ["checks_passed is not true"]
    if payload.get("exact_certified") is not True:
        return [f"exact_certified is {payload.get('exact_certified')!r}"]
    if report.get("samples") != samples:
        return [f"scanned {report.get('samples')} samples, asked for {samples}"]
    resid = report.get("max_abs_residual")
    if not isinstance(resid, float) or not 0.0 <= resid <= payload["residual_gate"]:
        return [f"max_abs_residual {resid!r} is not within the residual gate"]
    if report.get("cone_failures") != 0 or report.get("lemma_failures") != 0:
        return ["cone or lemma failures reported"]
    return []


CERT_NS = (3, 5, 7, 9, 11, 13)
CONTROL_NS = (3, 5, 7, 9, 11)


def certify(n: int) -> dict:
    """sigma_k(D^2 u) - 1 expanded exactly; {} means certified.

    Goes through ``verify_exact(n)``; where that refuses (its n cap), falls
    back to the same expansion by hand.
    """
    try:
        return symbolic.verify_exact(n).residual
    except CapabilityError:
        k = derive_constants(n).k
        total = symbolic.sym_sigma_k(symbolic.build_rotated_hessian(n), k)
        return symbolic.sym_sub(total, symbolic.sym_const(1))


def control_residual(n: int, k: int, a_const: Fraction, b_const: Fraction) -> dict:
    """sigma_k - 1 for the rotated Hessian built from the given constants."""
    hess = symbolic.rotated_hessian_from_constants(n, k, a_const, b_const)
    return symbolic.sym_sub(symbolic.sym_sigma_k(hess, k), symbolic.sym_const(1))


def check_ladder_entry(kind: str, n: int, residual: dict) -> list[str]:
    """Certificates must leave no residual; perturbed controls must leave one."""
    if kind == "cert" and residual:
        return [f"n={n}: sigma_k - 1 = {residual!r}, not 0"]
    if kind == "control" and not residual:
        return [f"n={n}: perturbed constants certified as a solution"]
    return []


class LadderWorkload:
    """One step = certify n = 3, 5, ..., 13, then the perturbed controls."""

    name = "exact_ladder"
    item = "certification"

    def __init__(self, cert_ns=CERT_NS, control_ns=CONTROL_NS):
        self.cert_ns = tuple(cert_ns)
        self.control_ns = tuple(control_ns)

    def setup(self, seed: int, workdir: Path) -> list[tuple]:
        rng = random.Random(derive_seed(seed, self.name, 0))
        controls = []
        for n in self.control_ns:
            p = derive_constants(n)
            delta = Fraction(rng.randint(1, 999), 10 ** rng.randint(3, 9))
            controls.append((n, p.k, p.A, p.B * (1 + rng.choice((-1, 1)) * delta)))
        return controls

    def step(self, controls, i: int, tracer) -> Step:
        step = Step(key=0, seconds=0.0, items=0, checks=0)
        residuals = []
        for n in self.cert_ns:
            start = perf_counter()
            with tracer.span(f"symbolic.cert.n{n}"):
                residual = certify(n)
            self._record(step, f"cert.n{n}", perf_counter() - start)
            step.failures += check_ladder_entry("cert", n, residual)
            residuals.append(residual)
        for n, k, a_const, b_const in controls:
            start = perf_counter()
            with tracer.span(f"symbolic.control.n{n}"):
                residual = control_residual(n, k, a_const, b_const)
            self._record(step, f"control.n{n}", perf_counter() - start)
            step.failures += check_ladder_entry("control", n, residual)
            residuals.append(residual)
        step.digest = repr([sorted(r.items()) for r in residuals])
        return step

    @staticmethod
    def _record(step: Step, part: str, seconds: float) -> None:
        step.parts[part] = seconds
        step.seconds += seconds
        step.items += 1
        step.checks += 1


def e_all(values, k: int) -> list[float]:
    """e_1..e_k of the values by the one-row recurrence."""
    e = [1.0] + [0.0] * k
    for i, v in enumerate(values):
        for j in range(min(i + 1, k), 0, -1):
            e[j] += v * e[j - 1]
    return e[1:]


def cone_oracle(mat: np.ndarray, k: int) -> tuple[bool | None, bool | None, int]:
    """Expected (sigma-positivity verdict, lemma verdict, negative count).

    Uses LAPACK eigenvalues, independent of sigmak's Jacobi and charpoly.
    A verdict is None where the oracle cannot decide it.
    """
    lam = np.linalg.eigvalsh(mat)
    fro = float(np.linalg.norm(mat))
    e = e_all(lam.tolist(), k)
    margins = [UNDECIDED_REL * (1.0 + fro ** j) for j in range(1, k + 1)]
    if any(ej < -m for ej, m in zip(e, margins)):
        by_sigma = False
    elif all(ej > m for ej, m in zip(e, margins)):
        by_sigma = True
    else:
        by_sigma = None
    near_zero = bool(np.any(np.abs(lam) <= UNDECIDED_REL * (1.0 + fro)))
    negatives = int(np.sum(lam < 0.0))
    if near_zero or abs(e[-1]) <= margins[-1]:
        by_lemma = None
    else:
        by_lemma = negatives <= 1 and e[-1] > 0.0
    return by_sigma, by_lemma, (-1 if near_zero else negatives)


@dataclass
class MatrixCase:
    argv: list[str]
    kind: str  # "cone", "phase" or "phase_n3"
    expect: tuple  # cone: cone_oracle(...); phase: (expected phase,)


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    rows = [" ".join(repr(float(v)) for v in row) for row in mat]
    path.write_text(f"{mat.shape[0]}\n" + "\n".join(rows) + "\n")


def solution_hessian_n3(x: tuple[float, float], t: float) -> np.ndarray:
    """D^2 u for n = 3 from the closed form, coordinates (x1, x2, t)."""
    p = derive_constants(3)
    et = math.exp(t)
    h2 = float(p.h_coeff_decay) * math.exp(-t) + float(p.h_coeff_growth) * et
    r2 = x[0] * x[0] + x[1] * x[1]
    return np.array([
        [2.0 * et, 0.0, 2.0 * x[0] * et],
        [0.0, 2.0 * et, 2.0 * x[1] * et],
        [2.0 * x[0] * et, 2.0 * x[1] * et, r2 * et + h2],
    ])


class MatrixWorkload:
    """``cone-check`` and ``phase-check`` on a pool of seeded matrix files.

    Pool entry i is, by i mod 4: a cone-check (two in four), a phase-check
    of a random matrix, or a phase-check of an n = 3 solution Hessian with
    ``--expected pi/2``.  Random matrices are symmetric with entries in
    [-1, 1]; dimensions 3..14 and the positive-definite shift (half of
    them) are laid out evenly over the pool, so the mix of costs does not
    depend on the seed; the entries, k and the points do.
    """

    name = "matrix_checks"
    item = "check call"

    def __init__(self, pool: int = 192):
        self.pool = pool

    def setup(self, seed: int, workdir: Path) -> list[MatrixCase]:
        rng = np.random.default_rng(derive_seed(seed, self.name, 0))
        cases = []
        for i in range(self.pool):
            path = workdir / f"m{i:05d}.txt"
            if i % 4 == 3:
                x = tuple(rng.uniform(-3.0, 3.0, 2))
                mat = solution_hessian_n3(x, float(rng.uniform(-2.0, 2.0)))
                _write_matrix(path, mat)
                argv = ["phase-check", "--matrix-file", str(path),
                        "--expected", repr(HALF_PI)]
                cases.append(MatrixCase(argv, "phase_n3", (HALF_PI,)))
                continue
            dim = 3 + (i // 4) % 12
            g = rng.uniform(-1.0, 1.0, (dim, dim))
            mat = (g + g.T) / 2.0
            if (i // 48) % 2:
                shift = max(0.0, -float(np.linalg.eigvalsh(mat)[0]))
                mat = mat + (shift + float(rng.uniform(0.05, 1.0))) * np.eye(dim)
            _write_matrix(path, mat)
            if i % 4 == 2:
                argv = ["phase-check", "--matrix-file", str(path)]
                phase = float(np.sum(np.arctan(np.linalg.eigvalsh(mat))))
                cases.append(MatrixCase(argv, "phase", (phase,)))
            else:
                k = int(rng.integers(1, dim + 1))
                argv = ["cone-check", "--matrix-file", str(path), "-k", str(k)]
                cases.append(MatrixCase(argv, "cone", cone_oracle(mat, k)))
        return cases

    def step(self, cases, i: int, tracer) -> Step:
        key = i % len(cases)
        case = cases[key]
        code, out, err, seconds = cli_call(case.argv, tracer)
        step = Step(key, seconds, 1, 1)
        payload, problem = parse_payload(code, out, err)
        if problem:
            step.failures.append(problem)
            return step
        step.digest = canonical(payload)
        if case.kind == "cone":
            failures, undecided = check_cone(payload, code, case.expect)
            step.failures += failures
            step.undecided = int(undecided)
        else:
            step.failures += check_phase(payload, code, case.expect[0])
        return step


def check_cone(payload: dict, code: int, expect: tuple) -> tuple[list[str], bool]:
    """Gate of a cone-check: verdicts agree with the oracle where it decides."""
    by_sigma, by_lemma, negatives = expect
    got_sigma = payload["sigma_positivity"]["in_cone"]
    got_lemma = payload["lemma"]["in_cone"]
    failures = []
    if code != (0 if got_sigma else 1):
        failures.append(f"exit {code} with in_cone {got_sigma}")
    if got_lemma and not got_sigma:
        failures.append("lemma accepts a matrix the sigma test rejects")
    if by_sigma is not None and got_sigma != by_sigma:
        failures.append(f"sigma-positivity verdict {got_sigma}, oracle {by_sigma}")
    if by_lemma is not None and got_lemma != by_lemma:
        failures.append(f"lemma verdict {got_lemma}, oracle {by_lemma}")
    if negatives >= 0 and payload["lemma"]["negative_count"] != negatives:
        failures.append(
            f"negative count {payload['lemma']['negative_count']}, oracle {negatives}"
        )
    return failures, by_sigma is None or by_lemma is None


def check_phase(payload: dict, code: int, expected: float) -> list[str]:
    """Gate of a phase-check: the phase is within 1e-9 of the oracle's."""
    phase = payload.get("phase")
    if code != 0:
        return [f"phase-check exited {code}"]
    if not isinstance(phase, float) or abs(phase - expected) > PHASE_TOL:
        return [f"phase {phase!r}, expected {expected!r}"]
    return []


WORKLOADS = {
    "scan_n7": ScanWorkload("scan_n7", n=7, samples=500, distinct=1000),
    "scan_n3_short": ScanWorkload("scan_n3_short", n=3, samples=200, distinct=16),
    "exact_ladder": LadderWorkload(),
    "matrix_checks": MatrixWorkload(),
}
