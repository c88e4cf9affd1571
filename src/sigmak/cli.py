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

Each call builds its parser anew, from one table, _COMMANDS: every
subcommand gets its help line, but only the command that the call's
arguments name gets a parser of its own, and the terminal width is read
once for all the help formatters (see _build_parser).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
import time
from pathlib import Path

from .cone import ConeVerdict, gamma_k
from .doubledouble import SPLIT_MAX
from .errors import ConvergenceError
from .solution import Point, SolutionParams, _fraction_str, eval_jet, h_formula
from .symbolic import Certification, verify_exact
from .symfunc import eigenvalues_symmetric
from .verify import (
    PHASE_TOL,
    ResidualReport,
    SampleBox,
    residual_scan,
    sl_phase,
)

# a scan on the standard box passes only if the worst residual stays below this
RESIDUAL_GATE = 1e-9
# mirrored entries of a matrix file further apart than this are not
# symmetric up to noise
SYMMETRY_TOL = 1e-12


def _params_payload(p: SolutionParams) -> dict:
    return {
        "n_base": p.n_base,
        "k": p.k,
        "m": p.m,
        "dim": p.total_dim,
        "A": _fraction_str(p.A),
        "B": _fraction_str(p.B),
        "h_coeff_decay": _fraction_str(p.h_coeff_decay),
        "h_coeff_growth": _fraction_str(p.h_coeff_growth),
        "h": h_formula(p),
    }


def _point_payload(pt: Point) -> dict:
    return {"x": list(pt.x), "t": pt.t, "w": list(pt.w)}


def _report_payload(p: SolutionParams, box: SampleBox, rep: ResidualReport) -> dict:
    return {
        "params": _params_payload(p),
        "samples": box.count,
        "max_abs_residual": rep.max_abs_residual,
        "argmax_point": _point_payload(rep.argmax_point),
        "cone_failures": rep.cone_failures,
        "lemma_failures": rep.lemma_failures,
        "min_sigma_j": rep.min_sigma_j,
        "phase_ok": rep.phase_ok,
    }


def _verdict_payload(method: str, in_cone: bool, verdict: ConeVerdict) -> dict:
    return {
        "method": method,
        "in_cone": in_cone,
        "negative_count": verdict.negative_count,
        "sigmas": list(verdict.sigmas),
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
    tokens = raw.split(",")
    for i, tok in enumerate(tokens, start=1):
        if not tok.strip():
            raise argparse.ArgumentTypeError(f"field {i} of {raw!r} is empty")
    try:
        return [float(tok) for tok in tokens]
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


def _read_matrix_file(path: str) -> list[list[float]]:
    """The symmetrized float rows of a matrix file: UTF-8 text (a leading
    byte-order mark is skipped), first line the dimension, then dim rows of
    dim numbers.

    One loop checks every entry: each must be a finite number, and a bad one
    is named by its row and column (1-based, counting rows after the
    dimension line).  The file is then refused when F = dim * max|entry|,
    which bounds the Frobenius norm and every eigenvalue, has
    (1 + F)^max(dim, 2) > SPLIT_MAX = 2^996: below that the fro**j (j <= dim)
    of the cone thresholds, the e_j products of the eigenvalues
    (|sigma_j| <= (1 + F)^dim) and the squares in the norms stay finite.  A
    second loop replaces each mirrored pair by its mean (v + w) / 2, which
    stays finite since the guard keeps every entry of a dim >= 2 file below
    2^498, and names the first worst pair of an asymmetry beyond
    SYMMETRY_TOL.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"matrix file {path}: {exc}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"matrix file {path} is empty")
    try:
        dim = int(lines[0])
    except ValueError:
        dim = 0
    if dim < 1:
        raise ValueError(
            f"matrix file {path}: the dimension must be a positive integer, "
            f"got {lines[0].strip()}"
        )
    if len(lines) != dim + 1:
        raise ValueError(
            f"matrix file {path}: expected {dim} rows after the dimension line"
        )
    rows = []
    biggest = 0.0
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
        biggest = max(biggest, *map(abs, row))
        rows.append(row)
    if max(dim, 2) * math.log2(1.0 + dim * biggest) > math.log2(SPLIT_MAX):
        raise OverflowError(
            f"matrix file {path}: entries up to {biggest:.3g} in dimension {dim} "
            f"could overflow; (1 + dim * max|entry|)^{max(dim, 2)} must stay <= 2^996"
        )
    gap, i, j = 0.0, 1, 1
    for p, row in enumerate(rows):
        for q in range(p + 1, dim):
            v, w = row[q], rows[q][p]
            if abs(v - w) > gap:
                gap, i, j = abs(v - w), p + 1, q + 1
            row[q] = rows[q][p] = (v + w) / 2.0
    if gap > SYMMETRY_TOL:
        raise ValueError(
            f"matrix file {path}: matrix asymmetry {gap:g} between entries ({i}, {j}) "
            f"and ({j}, {i}) exceeds tolerance {SYMMETRY_TOL:g}"
        )
    return rows


# argparse takes a token that starts with "-" for an option unless it reads
# as -123 or -1.5, so "--point -1,0,0" and "--t-min -1e-1" lost their values;
# and it splits "-nan" into the option -n and the value "an" before it asks
# whether the token is a negative number.  No sigmak option looks like a
# number, so a token that starts with -digit, -.digit, -inf or -nan (in any
# case) is always a value.
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every _NEGATIVE_VALUE token as a value;
    _build_parser builds the named subcommand's parser from it too."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


# the arguments of each subcommand but --output, which _build_parser adds last

def _dims_arguments(sp):
    sp.add_argument("-n", type=int, required=True, metavar="N",
                    help="core dimension (odd, k = (n+1)/2)")
    sp.add_argument("-m", type=int, default=0, metavar="M",
                    help="extra dummy dimensions (default 0)")


def _eval_arguments(sp):
    _dims_arguments(sp)
    sp.add_argument("--point", type=_csv_floats, required=True, metavar="C1,C2,...",
                    help="coordinates: x block, then t, then w block")


def _verify_arguments(sp):
    _dims_arguments(sp)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--x-radius", type=float, default=3.0)
    sp.add_argument("--t-min", type=float, default=-2.0)
    sp.add_argument("--t-max", type=float, default=2.0)


def _verify_exact_arguments(sp):
    sp.add_argument("-n", type=int, required=True, metavar="N")


def _cone_check_arguments(sp):
    sp.add_argument("--matrix-file", required=True)
    sp.add_argument("-k", type=int, required=True, metavar="K")


def _phase_check_arguments(sp):
    sp.add_argument("--matrix-file", required=True)
    sp.add_argument("--expected", type=_finite_float, default=None,
                    help="fail (exit 1) if the phase differs by more than 1e-9")


def _cmd_construct(ns) -> tuple[dict, int]:
    p = SolutionParams(ns.n, ns.m)
    return {"command": "construct", **_params_payload(p)}, 0


def _cmd_eval(ns) -> tuple[dict, int]:
    p = SolutionParams(ns.n, ns.m)
    pt = Point.from_coords(p, ns.point)
    jet = eval_jet(p, pt)
    payload = {
        "command": "eval",
        "params": _params_payload(p),
        "point": _point_payload(pt),
        "value": jet.value,
        "gradient": list(jet.gradient),
        "hessian": [list(row) for row in jet.hessian],
    }
    return payload, 0


def _cmd_verify(ns) -> tuple[dict, int]:
    p = SolutionParams(ns.n, ns.m)
    box = SampleBox(
        x_radius=ns.x_radius,
        t_range=(ns.t_min, ns.t_max),
        count=ns.samples,
        seed=ns.seed,
    )
    rep = residual_scan(p, box)
    # last, so that a box refused by SampleBox or by the scan's guards costs
    # no exact certification of n
    exact_certified = verify_exact(ns.n).ok
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
        "report": _report_payload(p, box, rep),
    }
    return payload, 0 if passed else 1


def _cmd_verify_exact(ns) -> tuple[dict, int]:
    cert = verify_exact(ns.n)
    return {"command": "verify-exact", **_cert_payload(cert)}, 0 if cert.ok else 1


def _cmd_cone_check(ns) -> tuple[dict, int]:
    rows = _read_matrix_file(ns.matrix_file)
    verdict = gamma_k(rows, ns.k)
    payload = {
        "command": "cone-check",
        "dim": len(rows),
        "k": ns.k,
        "sigma_positivity": _verdict_payload("sigma_positivity", verdict.in_cone, verdict),
        "lemma": _verdict_payload("lemma", verdict.lemma, verdict),
    }
    return payload, 0 if verdict.in_cone else 1


def _cmd_phase_check(ns) -> tuple[dict, int]:
    rows = _read_matrix_file(ns.matrix_file)
    values = eigenvalues_symmetric(rows)
    phase = sl_phase(values)
    within = None
    if ns.expected is not None:
        within = abs(phase - ns.expected) <= PHASE_TOL
    payload = {
        "command": "phase-check",
        "dim": len(rows),
        "phase": phase,
        "eigenvalues": list(values),
        "expected": ns.expected,
        "within_tolerance": within,
    }
    return payload, 0 if within is not False else 1


# each subcommand's help line, the function that adds its arguments to its
# subparser, and the function that runs it
_COMMANDS = {
    "construct": (
        "derive the exact solution constants", _dims_arguments, _cmd_construct
    ),
    "eval": (
        "evaluate u, its gradient and Hessian at a point", _eval_arguments, _cmd_eval
    ),
    "verify": (
        "seeded residual/ellipticity/phase scan", _verify_arguments, _cmd_verify
    ),
    "verify-exact": (
        "exact symbolic certification", _verify_exact_arguments, _cmd_verify_exact
    ),
    "cone-check": (
        "ellipticity cone membership of a matrix", _cone_check_arguments,
        _cmd_cone_check,
    ),
    "phase-check": (
        "sum of arctangents of eigenvalues", _phase_check_arguments, _cmd_phase_check
    ),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for one call with arguments argv.

    Every subcommand gets its choice and help line, so `sigmak -h` and
    every message read as with all parsers present, but only the command
    that argv names gets a parser of its own: add_parser hands parser_class
    the keywords it does not use, and build=False returns the top-level
    parser, so every map entry is a real parser that argparse may use (to
    check a help line, say) but never dispatches to.  That command is the
    first token of argv equal to a command name: the top-level parser has
    no other positional and no option that takes a value, so argparse
    dispatches on that token.  Every help formatter gets the width that
    HelpFormatter would probe for, the terminal's columns less 2, read once.
    """
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(
        prog="sigmak",
        description="Construct and verify non-polynomial entire solutions of "
        "sigma_k(D^2 u) = 1 for 2k = n + 1.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=lambda build, **kwargs: _Parser(**kwargs) if build else parser,
    )
    named = next((tok for tok in argv if tok in _COMMANDS), None)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line, formatter_class=formatter, build=name == named)
        if name == named:
            add_arguments(sp)
            sp.add_argument("--output", choices=("json", "text"), default="json",
                            help="output format")
    return parser


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
    try:
        ns = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        payload, code = _COMMANDS[ns.command][2](ns)
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
