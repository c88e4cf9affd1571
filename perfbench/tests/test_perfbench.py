"""Smoke tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(seed, trace, kind):
    proc, lines = invoke("--workload", "scan_n3_short", "--seed", str(seed),
                         "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True and record["failed"] == 0
    assert record["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(ln.startswith(f"metric {name} = ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    assert any(ln.startswith("failed_ops_ratio = 0 ") for ln in lines)
    assert any(ln.startswith("provenance git_commit: ") for ln in lines)


def test_counts_repeat_exactly_and_ladder_controls_pass():
    small = workloads.LadderWorkload(cert_ns=(3, 5, 7), control_ns=(3, 5))
    first, _ = run.measure(small, seed=4, seconds=0.1, trace=True)
    second, _ = run.measure(small, seed=4, seconds=0.1, trace=True)
    assert first["correct"] and second["correct"]
    counts = [
        {k: v["value"] for k, v in rec["metrics"].items() if "_calls" in k}
        for rec in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["symbolic.sym_mul_calls.n7"] > 0


def test_matrix_checks_pass_their_oracle(tmp_path):
    small = workloads.MatrixWorkload(pool=96)
    cases = small.setup(3, tmp_path)
    steps = run.run_steps(small, cases, NullTracer(), indices=list(range(96)), seen={})
    assert not [f for _, s in steps for f in s.failures]


def test_planted_perturbed_certificate_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "control_residual", lambda *args: {})
    small = workloads.LadderWorkload(cert_ns=(3,), control_ns=(3, 5))
    step = small.step(small.setup(0, Path(".")), 0, NullTracer())
    assert len(step.failures) == 2
    assert workloads.check_ladder_entry("cert", 3, {(0, 0): Fraction(1, 7)})


def test_planted_verify_residual_counts_as_failed(monkeypatch):
    scan = workloads.ScanWorkload("scan_n3_short", n=3, samples=20, distinct=1)
    inputs = scan.setup(0, Path("."))
    honest = workloads.cli_call
    calls = []

    def planted(argv, tracer):
        code, out, err, seconds = honest(argv, tracer)
        calls.append(argv)
        if len(calls) == 2:
            payload = json.loads(out)
            payload["report"]["max_abs_residual"] *= 1.5
            out = json.dumps(payload)
        return code, out, err, seconds

    monkeypatch.setattr(workloads, "cli_call", planted)
    steps = run.run_steps(scan, inputs, NullTracer(), indices=[0, 0], seen={})
    assert steps[0][1].failures == []
    assert steps[1][1].failures == ["payload of input 0 changed on repeat"]

    code, out, err, _ = honest(inputs[0], NullTracer())
    payload = json.loads(out)
    payload["report"]["max_abs_residual"] = 1e-3
    assert workloads.check_verify(payload, code, 20)


def test_planted_cone_verdict_counts_as_failed(tmp_path):
    mat = workloads.np.eye(4)
    expect = workloads.cone_oracle(mat, 2)
    assert expect == (True, True, 0)
    payload = {"sigma_positivity": {"in_cone": False, "negative_count": 0},
               "lemma": {"in_cone": False, "negative_count": 0}}
    failures, undecided = workloads.check_cone(payload, 1, expect)
    assert len(failures) == 2 and not undecided


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_n7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
