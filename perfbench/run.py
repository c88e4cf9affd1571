"""The sigmak benchmark: one seeded workload per invocation, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan_n3_short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` times the workload and prints the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs the same steps twice, untraced and
then traced, checks that the payloads are equal, and prints the per-layer
metrics: span times per sample or per call, exact call counts from a
separate counting step, and the tracing overhead.  ``--workload all`` runs
every workload both ways in child processes and prints everything.

End-to-end metrics, one value per workload:

* ``call_ms_p50``: median wall time of one timed call: a ``verify`` call
  (scans), a ``cone-check`` or ``phase-check`` call (matrix_checks), or a
  whole ladder with its controls (exact_ladder).
* ``items_per_s``: work items over the summed call time: scan samples,
  check calls, or certifications (controls included).
* ``peak_rss_mb``: peak resident memory of the benchmark process.
* ``setup_s``: median over SETUP_PROBES fresh interpreters of the time from
  spawning one to its ``import sigmak`` and input generation being done.

Times are normalized by the speed gauge (see SpeedGauge): the raw wall
times are printed beside them, under the workload's own names
(``verify_ms_p50``, ``matrix_check_us_p99``, ``exact_ladder_s``, ...), with
the p90/p99 tails where at least ten calls lie beyond them.  The failed-ops
ratio is the JSON ``failed`` over ``attempted`` and is printed too; it is
not a bounded metric because it is 0 when all is well.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and a result record with provenance are written under
``.perfbench-out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREADS_ENV_VAR = "SIGMAK_THREADS"
SETUP_PROBES = 5  # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10  # report a percentile only with this many calls beyond it
WORKLOAD_NAMES = ("scan_n7", "scan_n3_short", "exact_ladder", "matrix_checks")
LADDER_NS = (3, 5, 7, 9, 11, 13)
GAUGE_ITERATIONS = 1000  # one gauge sample: about 0.2 ms of pure Python
GAUGE_REF_SECONDS = 2.0e-4  # the gauge kernel's time at the reference speed
GAUGE_INTERVAL = 0.02  # seconds between gauge samples
GAUGE_WINDOW = 0.05  # samples this close to a call also describe its speed


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _gauge_kernel(n: int) -> float:
    hi, lo = 1.0, 0.0
    for _ in range(n):
        hi, err = _two_sum(hi, 1e-3)
        lo += err
    return hi + lo


class SpeedGauge:
    """How fast this machine runs Python right now, sampled all along a run.

    On a shared host the speed of one process drifts by up to a factor of
    two within seconds, as other tenants come and go, and that drift swamps
    the differences the benchmark is for.  While the gauge is entered, a
    timer signal every GAUGE_INTERVAL seconds times a fixed pure-Python
    kernel (float ops and small calls, like sigmak's hot loops); the handler
    runs between the bytecodes of whatever is executing, so it samples the
    speed during long calls too.  A call's normalized time is its wall time
    times GAUGE_REF_SECONDS over the median kernel time of the samples taken
    during the call or within GAUGE_WINDOW of it: the wall time the call
    would take at the reference speed.  Raw wall times are reported beside
    the normalized ones.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernel_seconds: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _gauge_kernel(GAUGE_ITERATIONS)
        end = time.perf_counter()
        self.times.append(end)
        self.kernel_seconds.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL, GAUGE_INTERVAL)
        self._tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the measured speed around [start, end]."""
        lo = bisect.bisect_left(self.times, start - GAUGE_WINDOW)
        hi = bisect.bisect_right(self.times, end + GAUGE_WINDOW)
        around = self.kernel_seconds[lo:hi] or self.kernel_seconds
        return GAUGE_REF_SECONDS / statistics.median(around)


def bootstrap() -> None:
    """Make the checkout's own ``src/sigmak`` importable, or exit 1."""
    if not (SRC / "sigmak" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sigmak sources at {SRC / 'sigmak'}; "
                 "run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import sigmak

    if SRC.resolve() not in Path(sigmak.__file__).resolve().parents:
        sys.exit(f"perfbench: imported sigmak from {sigmak.__file__}, not {SRC}")


def quantile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of values strictly beyond it."""
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def run_steps(workload, inputs, tracer, indices=None, deadline=None, seen=None,
              gauge=None):
    """Closed loop over the given step indices, or from 0 until the deadline.

    Each step's digest is compared with the first one seen for its key.  With
    a gauge, each step's ``norm`` is set to its speed factor.
    """
    steps = []
    windows = []
    for index in itertools.count() if indices is None else indices:
        tracer.op = index
        start = time.perf_counter()
        step = workload.step(inputs, index, tracer)
        windows.append((start, time.perf_counter()))
        if seen is not None and step.digest:
            first = seen.setdefault(step.key, step.digest)
            if first == step.digest:
                step.digest = first  # one shared copy: memory does not grow with calls
            else:
                step.failures.append(f"payload of input {step.key!r} changed on repeat")
        steps.append((index, step))
        if indices is None and time.perf_counter() >= deadline:
            break
    if gauge is not None:
        for (_, step), (start, end) in zip(steps, windows):
            step.norm = gauge.factor(start, end)
    return steps


def probe_setup(workload_name: str, seed: int, gauge: SpeedGauge) -> tuple[float, float]:
    """Raw and normalized seconds from spawning a fresh interpreter to its
    inputs being ready."""
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload_name, "--seed", str(seed), "--setup-probe", workdir]
        start = time.monotonic()
        begin = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True,
                              text=True, timeout=120)
        end = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    raw = float(proc.stdout.split()[-1]) - start
    return raw, raw * gauge.factor(begin, end)


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    return env


def provenance(seed: int, threads_state: str) -> dict:
    import numpy

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "sigmak").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "sigmak_sources_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "sigmak_threads": threads_state,
    }


def timed_metrics(workload, steps, setups) -> tuple[dict, list[str]]:
    """End-to-end metrics of the untraced pass, plus descriptive lines.

    The metrics are normalized to the reference speed (see SpeedGauge).  The
    lines give each figure both normalized and raw, under the workload's own
    names (verify_ms_p50, matrix_checks_per_s, exact_ladder_s, ...).
    """
    items = sum(s.items for _, s in steps)
    lines = [f"calls timed: {len(steps)}; {workload.item}s: {items}; "
             "setup probes (raw s): " + ", ".join(f"{raw:.4f}" for raw, _ in setups)]
    for kind in ("norm", "raw"):
        factor = (lambda s: s.norm) if kind == "norm" else (lambda s: 1.0)
        call_s = [s.seconds * factor(s) for _, s in steps]
        setup_s = statistics.median(norm if kind == "norm" else raw for raw, norm in setups)
        per_s = items / sum(call_s)
        p50 = statistics.median(call_s)
        if kind == "norm":
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (setup_s, "s"), "call_ms_p50": (p50 * 1e3, "ms"),
                       "items_per_s": (per_s, "1/s"), "peak_rss_mb": (rss_mb, "MB")}
        tail = None
        if workload.item == "sample":
            named = [("scan_samples_per_s", per_s, "1/s"), ("verify_ms_p50", p50 * 1e3, "ms")]
            tail = (0.90, "verify_ms_p90", 1e3, "ms")
        elif workload.item == "check call":
            named = [("matrix_checks_per_s", per_s, "1/s"),
                     ("matrix_check_us_p50", p50 * 1e6, "us")]
            tail = (0.99, "matrix_check_us_p99", 1e6, "us")
        else:
            named = [("exact_ladder_s", p50, "s")] + [
                (f"ladder.{part}_ms",
                 statistics.median(s.parts[part] * factor(s) for _, s in steps) * 1e3, "ms")
                for part in steps[0][1].parts]
        named.append(("setup_s", setup_s, "s"))
        lines += [f"{kind} {name} = {value:.6g} {unit}" for name, value, unit in named]
        if tail:
            q, name, mult, unit = tail
            value, beyond = quantile(call_s, q)
            if beyond >= TAIL_BEYOND:
                lines.append(f"{kind} {name} = {value * mult:.6g} {unit} "
                             f"({beyond} of {len(call_s)} calls beyond it)")
            else:
                lines.append(f"{kind} {name}: not reported, {beyond} of {len(call_s)} "
                             f"calls beyond it (needs {TAIL_BEYOND})")
    return metrics, lines


# Per-layer span metrics: (metric, span name, statistic, divided by, scale, unit).
# "total" is the summed span duration, "self" the summed self time, "count"
# the number of spans; "call" divides by CLI calls, "sample" by scan samples,
# "span" by the span's own count (a mean per occurrence).
LAYER_METRICS = [
    ("cli.call_self_ms", "cli.run", "self", "call", 1e3, "ms/call"),
    ("cli.exact_gate_ms", "cli.exact_gate", "total", "call", 1e3, "ms/call"),
    ("cli.read_matrix_file_us", "cli.read_matrix_file", "total", "call", 1e6, "us/call"),
    ("verify.sample_point_us", "verify.sample_point", "total", "sample", 1e6, "us/sample"),
    ("verify.scan_self_us", "verify.residual_scan", "self", "sample", 1e6, "us/sample"),
    ("solution.eval_jet_us", "solution.eval_jet", "total", "sample", 1e6, "us/sample"),
    ("solution.hessian_dd_us", "solution.hessian_dd", "total", "sample", 1e6, "us/sample"),
    ("symfunc.eigenvalues_dd_us", "symfunc.eigenvalues_dd", "total", "sample", 1e6,
     "us/sample"),
    ("symfunc.e_k_dd_us", "symfunc.e_k_dd", "total", "sample", 1e6, "us/sample"),
    ("symfunc.charpoly_us", "symfunc.charpoly", "total", "sample", 1e6, "us/sample"),
    ("symfunc.minor_audit_us", "symfunc.minor_audit", "total", "sample", 1e6, "us/sample"),
    ("symfunc.minor_audit_calls", "symfunc.minor_audit", "count", "call", 1.0, "count/call"),
    ("symfunc.eigenvalues_float_us", "symfunc.eigenvalues_float", "total", "call", 1e6,
     "us/call"),
    ("cone.verdict_us", "cone.verdict", "total", "sample", 1e6, "us/sample"),
    ("cone.gamma_k_us", "cone.gamma_k", "total", "call", 1e6, "us/call"),
    *[(f"symbolic.cert_ms.n{n}", f"symbolic.cert.n{n}", "total", "span", 1e3, "ms")
      for n in LADDER_NS],
    ("symbolic.build_hessian_ms", "symbolic.build_hessian", "total", "span", 1e3, "ms/call"),
]
DD_OPS = ("mul", "add", "div", "sqrt", "exp")


def layer_metrics(workload, steps, tracer, counter, count_items, norm) -> dict:
    """Per-layer metrics from the traced pass's spans and the counting step.

    Span times are scaled by `norm`, the traced pass's speed-gauge factor.
    A layer the workload never calls reads 0.
    """
    totals = tracer.totals()
    samples = sum(s.items for _, s in steps) if workload.item == "sample" else 0
    bases = {"call": totals.get("cli.run", (0,))[0], "sample": samples}
    metrics = {}
    for metric, span, stat, per, scale, unit in LAYER_METRICS:
        count, total, self_s = totals.get(span, (0, 0.0, 0.0))
        value = {"count": count, "total": total * norm, "self": self_s * norm}[stat]
        base = count if per == "span" else bases[per]
        metrics[metric] = (value / base * scale if base else 0.0, unit)
    for op in DD_OPS:
        calls = counter.counts[f"doubledouble.{op}"] if workload.item == "sample" else 0
        metrics[f"doubledouble.{op}_calls_per_sample"] = (calls / count_items, "count/sample")
    for n in LADDER_NS:
        metrics[f"symbolic.sym_mul_calls.n{n}"] = (
            float(counter.counts[f"symbolic.sym_mul.n{n}"]), "count")
    return metrics


def count_step(workload, inputs, seen):
    """Step 0 again with exact call counters installed.

    The ladder counts each certification on its own, keyed by n.
    """
    import tracing
    from workloads import LadderWorkload

    counter = tracing.CallCounter()
    null = tracing.NullTracer()
    with tracing.installed(tracing.COUNT_TARGETS, counter.wrap):
        if not isinstance(workload, LadderWorkload):
            return counter, [s for _, s in run_steps(workload, inputs, null,
                                                     indices=[0], seen=seen)]
        steps = []
        for n in workload.cert_ns:
            before = counter.counts["symbolic.sym_mul"]
            steps.append(LadderWorkload(cert_ns=(n,), control_ns=()).step([], 0, null))
            counter.counts[f"symbolic.sym_mul.n{n}"] = (
                counter.counts["symbolic.sym_mul"] - before)
    return counter, steps


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return the result record and descriptive lines."""
    import tracing

    OUT.mkdir(exist_ok=True)
    lines = []
    with SpeedGauge() as gauge, tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setups = [probe_setup(workload.name, seed, gauge)
                  for _ in range(0 if trace else SETUP_PROBES)]
        inputs = workload.setup(seed, Path(workdir))
        seen: dict = {}
        budget = seconds / 2 if trace else seconds
        untraced = run_steps(workload, inputs, tracing.NullTracer(), seen=seen,
                             deadline=time.perf_counter() + budget, gauge=gauge)
        passes = [untraced]
        if trace:
            tracer = tracing.Tracer()
            indices = [index for index, _ in untraced]
            with tracing.installed(tracing.SPAN_TARGETS, tracer.wrap) as missing:
                traced = run_steps(workload, inputs, tracer, indices=indices, seen=seen,
                                   gauge=gauge)
            counter, counted = count_step(workload, inputs, seen)
            passes += [traced, [(0, s) for s in counted]]
    if trace:
        base = sum(s.seconds * s.norm for _, s in untraced)
        traced_norm = sum(s.seconds * s.norm for _, s in traced)
        overhead = traced_norm / base - 1.0
        metrics = layer_metrics(workload, traced, tracer, counter, untraced[0][1].items,
                                traced_norm / sum(s.seconds for _, s in traced))
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
        if missing:
            lines.append(f"not traced (absent from the program): {', '.join(missing)}")
        same = sum(t.digest == u.digest for (_, u), (_, t) in zip(untraced, traced))
        lines.append(f"traced payloads equal to untraced: {same} of {len(traced)}")
        p50 = [statistics.median(s.seconds * s.norm for _, s in p) * 1e3
               for p in (untraced, traced)]
        lines.append(f"tracing overhead: {overhead * 100:.3g}% of summed call time over "
                     f"{len(indices)} identical calls ({base:.4g} s untraced, "
                     f"{traced_norm:.4g} s traced); call_ms_p50 {p50[0]:.6g} ms untraced, "
                     f"{p50[1]:.6g} ms traced (normalized)")
    else:
        metrics, more = timed_metrics(workload, untraced, setups)
        lines += more
    lines.append(f"speed gauge: {len(gauge.kernel_seconds)} samples, median "
                 f"{statistics.median(gauge.kernel_seconds) * 1e3:.4g} ms "
                 f"(reference {GAUGE_REF_SECONDS * 1e3:g} ms)")
    steps = [s for p in passes for _, s in p]
    failures = [f for s in steps for f in s.failures]
    attempted = sum(s.checks for s in steps)
    undecided = sum(s.undecided for s in steps)
    lines.append(f"failed_ops_ratio = {len(failures) / attempted:.6g} "
                 f"({len(failures)} failed of {attempted} attempted"
                 f"{f'; {undecided} cone verdicts undecided by the oracle' if undecided else ''})")
    lines += [f"FAILED: {f}" for f in failures[:20]]
    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, lines


def setup_probe(workload_name: str, seed: int, workdir: str) -> None:
    """Child side of probe_setup: import sigmak, build inputs, print the clock."""
    bootstrap()
    from workloads import WORKLOADS

    WORKLOADS[workload_name].setup(seed, Path(workdir))
    print(time.monotonic())


def run_all(seed: int, seconds: float) -> int:
    """Every workload, timed and traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            out = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not out:
                print(f"== {name} trace={trace} failed: {proc.stderr.strip()}")
                return 1
            print(f"== {name} trace={trace}")
            print("\n".join(out[:-1]))
            rec = json.loads(out[-1])
            merged["correct"] &= rec["correct"]
            merged["attempted"] += rec["attempted"]
            merged["failed"] += rec["failed"]
            for key, val in rec["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    threads = os.environ.pop(THREADS_ENV_VAR, None)
    threads_state = "unset" if threads is None else f"removed (was {threads!r})"
    bootstrap()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    record, lines = measure(workload, args.seed, args.seconds, bool(args.trace))
    prov = provenance(args.seed, threads_state)
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, closed loop, 1 client, 1 thread")
    for key, val in prov.items():
        print(f"provenance {key}: {val}")
    print("\n".join(lines))
    for key, val in record["metrics"].items():
        print(f"metric {key} = {val['value']:.6g} {val['unit']}")
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(
        {"workload": workload.name, "provenance": prov, "notes": lines, **record},
        indent=2))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
