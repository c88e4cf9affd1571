"""Command-line interface: construction, evaluation and verification runs.

All subcommands print a single JSON object (or a flat text rendering with
--output text).  Exact rationals are serialized as "p/q" strings so no
precision is lost; the elapsed time is emitted under its own top-level key so
consumers can compare everything else byte for byte.

Exit codes: 0 all checks passed, 1 a verification check failed (the report is
still printed), 2 usage or domain errors (diagnostic on stderr), 141 (128 +
SIGPIPE, as the shell reports a writer killed by a closed pipe) when stdout
is closed before the report is written, e.g. by ``| head``; nothing is
printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from .cone import gamma_k
from .errors import ConvergenceError
from .solution import (
    Point,
    SolutionParams,
    derive_constants,
    eval_jet,
    extend,
    h_formula,
)
from .symbolic import Certification, verify_exact
from .symfunc import SymmetricMatrix, eigenvalues_symmetric
from .verify import (
    PHASE_TOL,
    ResidualReport,
    SampleBox,
    residual_scan,
    sl_phase,
)

# a scan on the standard box passes only if the worst residual stays below this
RESIDUAL_GATE = 1e-9
# a matrix file whose entries bound F (below) has (1 + F)^max(dim, 2) past
# this is refused: the same 2^996 as the scan's radius guard
MATRIX_SCALE_MAX = 2.0**996


def _params_payload(p: SolutionParams) -> dict:
    return {
        "n_base": p.n_base,
        "k": p.k,
        "m": p.m,
        "dim": p.total_dim,
        "A": str(p.A),
        "B": str(p.B),
        "h_coeff_decay": str(p.h_coeff_decay),
        "h_coeff_growth": str(p.h_coeff_growth),
        "h": h_formula(p),
    }


def _point_payload(pt: Point) -> dict:
    return {"x": list(pt.x), "t": pt.t, "w": list(pt.w)}


def _report_payload(rep: ResidualReport) -> dict:
    return {
        "params": _params_payload(rep.params_echo),
        "samples": rep.samples,
        "max_abs_residual": rep.max_abs_residual,
        "argmax_point": _point_payload(rep.argmax_point),
        "cone_failures": rep.cone_failures,
        "lemma_failures": rep.lemma_failures,
        "min_sigma_j": rep.min_sigma_j,
        "phase_ok": rep.phase_ok,
    }


def _verdict_payload(verdict) -> dict:
    return {
        "method": verdict.method,
        "in_cone": verdict.in_cone,
        "negative_count": verdict.negative_count,
        "sigmas": list(verdict.sigmas.sigmas),
    }


def _cert_payload(cert: Certification) -> dict:
    return {
        "n_base": cert.n_base,
        "k": cert.k,
        "ok": cert.ok,
        "cone_ok": cert.cone_ok,
        "cone_failure_j": cert.cone_failure_j,
        "residual_terms": [
            {"r_power": a, "exp_coeff": b, "coeff": str(c)}
            for (a, b), c in sorted(cert.residual.items())
        ],
    }


def _csv_floats(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {raw!r}")


def _finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {raw!r}")
    return value


def _read_matrix_file(path: str) -> SymmetricMatrix:
    """Plain text: first line the dimension, then dim rows of dim numbers.

    Every entry must be a finite number; a bad one is named by its row and
    column (1-based, counting rows after the dimension line).  The file is
    refused when F = dim * max|entry|, which bounds the Frobenius norm and
    every eigenvalue, has (1 + F)^max(dim, 2) > 2^996: below that the
    fro**j (j <= dim) of the cone thresholds, the e_j products of the
    eigenvalues (|sigma_j| <= (1 + F)^dim) and the squares in the norms
    stay finite.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"matrix file {path} is empty")
    try:
        dim = int(lines[0])
    except ValueError:
        raise ValueError(f"matrix file {path}: first line must be the dimension")
    if dim < 1 or len(lines) != dim + 1:
        raise ValueError(
            f"matrix file {path}: expected {dim} rows after the dimension line"
        )
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        tokens = ln.split()
        if len(tokens) != dim:
            raise ValueError(f"matrix file {path}: row {ln!r} does not have {dim} entries")
        row = []
        for j, tok in enumerate(tokens, start=1):
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"matrix file {path}: entry {tok!r} at row {i}, column {j} "
                    "is not a finite number"
                )
            row.append(value)
        rows.append(row)
    biggest = max(abs(v) for row in rows for v in row)
    if max(dim, 2) * math.log2(1.0 + dim * biggest) > math.log2(MATRIX_SCALE_MAX):
        raise OverflowError(
            f"matrix file {path}: entries up to {biggest:.3g} in dimension {dim} "
            f"could overflow; (1 + dim * max|entry|)^{max(dim, 2)} must stay <= 2^996"
        )
    return SymmetricMatrix.symmetrized(rows, tol=1e-12)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmak",
        description="Construct and verify non-polynomial entire solutions of "
        "sigma_k(D^2 u) = 1 for 2k = n + 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument(
            "--output", choices=("json", "text"), default="json", help="output format"
        )

    def add_dims(sp):
        sp.add_argument("-n", type=int, required=True, metavar="N",
                        help="core dimension (odd, k = (n+1)/2)")
        sp.add_argument("-m", type=int, default=0, metavar="M",
                        help="extra dummy dimensions (default 0)")

    sp = sub.add_parser("construct", help="derive the exact solution constants")
    add_dims(sp)
    add_output(sp)

    sp = sub.add_parser("eval", help="evaluate u, its gradient and Hessian at a point")
    add_dims(sp)
    sp.add_argument("--point", type=_csv_floats, required=True, metavar="C1,C2,...",
                    help="coordinates: x block, then t, then w block")
    add_output(sp)

    sp = sub.add_parser("verify", help="seeded residual/ellipticity/phase scan")
    add_dims(sp)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--x-radius", type=float, default=3.0)
    sp.add_argument("--t-min", type=float, default=-2.0)
    sp.add_argument("--t-max", type=float, default=2.0)
    add_output(sp)

    sp = sub.add_parser("verify-exact", help="exact symbolic certification")
    sp.add_argument("-n", type=int, required=True, metavar="N")
    add_output(sp)

    sp = sub.add_parser("cone-check", help="ellipticity cone membership of a matrix")
    sp.add_argument("--matrix-file", required=True)
    sp.add_argument("-k", type=int, required=True, metavar="K")
    add_output(sp)

    sp = sub.add_parser("phase-check", help="sum of arctangents of eigenvalues")
    sp.add_argument("--matrix-file", required=True)
    sp.add_argument("--expected", type=_finite_float, default=None,
                    help="fail (exit 1) if the phase differs by more than 1e-9")
    add_output(sp)

    return parser


def _cmd_construct(ns) -> tuple[dict, int]:
    p = extend(derive_constants(ns.n), ns.m)
    return {"command": "construct", **_params_payload(p)}, 0


def _cmd_eval(ns) -> tuple[dict, int]:
    p = extend(derive_constants(ns.n), ns.m)
    pt = Point.from_coords(p, ns.point)
    jet = eval_jet(p, pt)
    payload = {
        "command": "eval",
        "params": _params_payload(p),
        "point": _point_payload(pt),
        "value": jet.value,
        "gradient": list(jet.gradient),
        "hessian": jet.hessian.to_lists(),
    }
    return payload, 0


def _cmd_verify(ns) -> tuple[dict, int]:
    p = extend(derive_constants(ns.n), ns.m)
    exact_certified = verify_exact(ns.n).ok
    box = SampleBox(
        x_radius=ns.x_radius,
        t_range=(ns.t_min, ns.t_max),
        count=ns.samples,
        seed=ns.seed,
        w_radius=ns.x_radius,
    )
    rep = residual_scan(p, box)
    passed = (
        exact_certified
        and rep.max_abs_residual <= RESIDUAL_GATE
        and rep.cone_failures == 0
        and rep.lemma_failures == 0
        and rep.phase_ok is not False
    )
    payload = {
        "command": "verify",
        "exact_certified": exact_certified,
        "checks_passed": passed,
        "residual_gate": RESIDUAL_GATE,
        "report": _report_payload(rep),
    }
    return payload, 0 if passed else 1


def _cmd_verify_exact(ns) -> tuple[dict, int]:
    cert = verify_exact(ns.n)
    return {"command": "verify-exact", **_cert_payload(cert)}, 0 if cert.ok else 1


def _cmd_cone_check(ns) -> tuple[dict, int]:
    m = _read_matrix_file(ns.matrix_file)
    by_sigma, by_lemma = gamma_k(m, ns.k)
    payload = {
        "command": "cone-check",
        "dim": m.dim,
        "k": ns.k,
        "sigma_positivity": _verdict_payload(by_sigma),
        "lemma": _verdict_payload(by_lemma),
    }
    return payload, 0 if by_sigma.in_cone else 1


def _cmd_phase_check(ns) -> tuple[dict, int]:
    m = _read_matrix_file(ns.matrix_file)
    values = eigenvalues_symmetric(m).values
    phase = sl_phase(values)
    within = None
    if ns.expected is not None:
        within = abs(phase - ns.expected) <= PHASE_TOL
    payload = {
        "command": "phase-check",
        "dim": m.dim,
        "phase": phase,
        "eigenvalues": list(values),
        "expected": ns.expected,
        "within_tolerance": within,
    }
    return payload, 0 if within is not False else 1


_HANDLERS = {
    "construct": _cmd_construct,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "verify-exact": _cmd_verify_exact,
    "cone-check": _cmd_cone_check,
    "phase-check": _cmd_phase_check,
}


def _text_lines(value, key: str = "") -> list[str]:
    prefix = f"{key}: " if key else ""
    if isinstance(value, dict):
        lines = [f"{key}:"] if key else []
        for k, v in value.items():
            lines.extend(
                "  " + ln if key else ln for ln in _text_lines(v, str(k))
            )
        return lines
    if isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        lines = [f"{key}:"]
        for item in value:
            lines.extend("  " + ln for ln in _text_lines(item, "-"))
        return lines
    return [f"{prefix}{value}"]


def run(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        payload, code = _HANDLERS[ns.command](ns)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"sigmak: error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"sigmak: numerical failure: {exc}", file=sys.stderr)
        return 2
    payload["elapsed_seconds"] = time.perf_counter() - start
    if ns.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_text_lines(payload)))
    return code


# 128 + SIGPIPE: what the shell reports for a writer whose pipe was closed
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        # on a pipe stdout is block-buffered, so a closed reader shows only
        # when the report is flushed: flush here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: say nothing, and point stdout at devnull so that
        # the interpreter's final flush of the unwritten report does not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
