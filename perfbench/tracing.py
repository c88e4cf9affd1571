"""Span recorder and call counters for the traced pass of the benchmark.

Spans and counters are installed from outside the program: public (and a few
module-private) names are replaced, for the duration of a pass, in the module
namespaces where their callers look them up.  ``sigmak.verify`` imports its
layer functions by name, so they are wrapped there; ``sigmak.cli`` likewise;
``sigmak.doubledouble`` and ``sigmak.symbolic`` are wrapped as module
globals, which catches both outside callers (``dd.mul(...)``) and calls from
inside the module itself.

A span records its name, start, end, parent span and the id of the benchmark
step (op) that caused it.  Self time is a span's duration minus the time its
child spans cover.  Spans stay in memory and are written out when the pass
ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from sigmak import cli, cone, symbolic, verify
from sigmak import doubledouble as dd

# (module, attribute, span name).  Several attributes may share a span name:
# the three cone verdict helpers form one "cone.verdict" layer.
SPAN_TARGETS = [
    (cli, "verify_exact", "cli.exact_gate"),
    (cli, "_read_matrix_file", "cli.read_matrix_file"),
    (cli, "residual_scan", "verify.residual_scan"),
    (cli, "gamma_k_by_sigma_positivity", "cone.gamma_k"),
    (cli, "gamma_k_by_lemma", "cone.gamma_k"),
    (cli, "sl_phase", "verify.sl_phase"),
    (cli, "eigenvalues_symmetric", "symfunc.eigenvalues_float"),
    (verify, "sample_point", "verify.sample_point"),
    (verify, "eval_jet", "solution.eval_jet"),
    (verify, "hessian_dd", "solution.hessian_dd"),
    (verify, "eigenvalues_symmetric_dd", "symfunc.eigenvalues_dd"),
    (verify, "elementary_symmetric_dd", "symfunc.e_k_dd"),
    (verify, "sigma_all_via_charpoly", "symfunc.charpoly"),
    (verify, "sigma_via_minors", "symfunc.minor_audit"),
    (verify, "count_negative_eigenvalues", "cone.verdict"),
    (verify, "_sigma_positivity_verdict", "cone.verdict"),
    (verify, "_lemma_verdict", "cone.verdict"),
    (verify, "eigenvalues_symmetric", "symfunc.eigenvalues_float"),
    (cone, "eigenvalues_symmetric", "symfunc.eigenvalues_float"),
    (symbolic, "build_rotated_hessian", "symbolic.build_hessian"),
]

# Exact call counts; kept out of the timed spans because the counting
# wrapper costs as much as a double-double operation itself.
COUNT_TARGETS = [
    (dd, "mul", "doubledouble.mul"),
    (dd, "add", "doubledouble.add"),
    (dd, "div", "doubledouble.div"),
    (dd, "sqrt", "doubledouble.sqrt"),
    (dd, "exp", "doubledouble.exp"),
    (symbolic, "sym_mul", "symbolic.sym_mul"),
]


@contextmanager
def installed(targets, make_wrapper):
    """Replace each present target by ``make_wrapper(name, original)``.

    Yields the list of ``module.attribute`` names that were not found, so a
    refactored program still runs under the benchmark and the gap is shown.
    """
    replaced = []
    missing = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, make_wrapper(name, original))
            replaced.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


class NullTracer:
    """Stands in for a Tracer in the untimed passes; records nothing."""

    op = -1

    def span(self, name):
        return nullcontext()


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start, end, parent_index, op, child_seconds]``;
    ``child_seconds`` accumulates the durations of its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0])

    def _close(self) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, summed duration, summed self time)."""
        out: dict[str, list] = {}
        for name, start, end, _parent, _op, child in self.spans:
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child
        return {name: tuple(acc) for name, acc in out.items()}

    def write(self, path: Path) -> None:
        """One JSON array per line: op, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op, _child in self.spans:
                fh.write(json.dumps([op, name, start, end, parent]) + "\n")


class CallCounter:
    """Exact call counts of the COUNT_TARGETS functions."""

    def __init__(self):
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted
