import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigmak import cli, symfunc
from sigmak.cli import run
from sigmak.symbolic import Certification


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, payload, out.err


class TestConstruct:
    def test_n5_payload(self, capsys):
        code, payload, _ = run_json(capsys, ["construct", "-n", "5"])
        assert code == 0
        assert payload["k"] == 3
        assert payload["A"] == "24"
        assert payload["B"] == "32"
        assert payload["h"] == "(1/96)*exp(-2t) + (-4/3)*exp(t)"
        assert "elapsed_seconds" in payload

    def test_even_dimension_exits_2(self, capsys):
        code = run(["construct", "-n", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "2k = n+1 requires odd n" in err

    def test_extension_reported(self, capsys):
        code, payload, _ = run_json(capsys, ["construct", "-n", "3", "-m", "2"])
        assert code == 0
        assert payload["m"] == 2 and payload["dim"] == 5

    @pytest.mark.parametrize("n", [689, 1001, 1033])
    def test_past_the_float_range_of_a(self, capsys, n):
        # A passes the largest float from n = 689 on; construct needs only
        # the exact constants
        code, payload, _ = run_json(capsys, ["construct", "-n", str(n), "-m", "2"])
        k = (n + 1) // 2
        assert code == 0
        assert payload["A"] == str(2 ** (k - 1) * math.comb(n - 1, k - 1))
        assert payload["dim"] == n + 2

    def test_past_the_int_to_str_digit_limit(self, capsys):
        # from n = 9513 on a constant has more digits than the 4300 that
        # CPython's int-to-str conversion allows by default; construct
        # writes every one, which Decimal reads back exactly
        n, k = 10001, 5001
        a = 2 ** (k - 1) * math.comb(n - 1, k - 1)
        code, payload, _ = run_json(capsys, ["construct", "-n", str(n)])
        assert code == 0
        assert len(payload["A"]) > 4300
        assert Decimal(payload["A"]) == Decimal(a)
        decay = payload["h_coeff_decay"]
        assert decay.startswith("1/") and Decimal(decay[2:]) == Decimal(a * (k - 1) ** 2)
        assert payload["h"] == f"({decay})*exp(-{k - 1}t) + ({payload['h_coeff_growth']})*exp(t)"


class TestEval:
    def test_known_jet(self, capsys):
        code, payload, _ = run_json(capsys, ["eval", "-n", "3", "--point", "1,0,0"])
        assert code == 0
        assert payload["value"] == pytest.approx(0.25)
        assert payload["gradient"] == pytest.approx([2.0, 0.0, -0.25])
        assert payload["hessian"][0] == pytest.approx([2.0, 0.0, 2.0])
        assert payload["hessian"][2][2] == pytest.approx(0.25)

    def test_wrong_arity_exits_2(self, capsys):
        code = run(["eval", "-n", "3", "--point", "1,0"])
        assert code == 2
        assert "coordinates" in capsys.readouterr().err

    def test_malformed_point_exits_2(self, capsys):
        code = run(["eval", "-n", "3", "--point", "1,zero,0"])
        assert code == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, payload, _ = run_json(
            capsys, ["verify", "-n", "3", "--samples", "150", "--seed", "42"]
        )
        assert code == 0
        assert payload["exact_certified"] is True
        assert payload["checks_passed"] is True
        report = payload["report"]
        assert report["samples"] == 150
        assert report["max_abs_residual"] <= 1e-10
        assert report["cone_failures"] == 0
        assert report["phase_ok"] is True
        assert "elapsed_seconds" not in report  # hoisted to the top level

    def test_extended_case(self, capsys):
        code, payload, _ = run_json(
            capsys, ["verify", "-n", "3", "-m", "1", "--samples", "80", "--seed", "7"]
        )
        assert code == 0
        assert payload["report"]["phase_ok"] is None

    @pytest.mark.parametrize("argv, want", [
        (["-n", "11", "-m", "1", "--x-radius", "4e12", "--samples", "200"], 1),
        (["-n", "3", "-m", "120"], 0),
    ], ids=["n11-m1-x4e12", "n3-m120"])
    def test_dummy_coordinates_do_not_shrink_the_box(self, capsys, argv, want):
        # the m zero eigenvalues add nothing to any sigma_j, so the radius
        # guard reads the core's n: these boxes run as they do at m = 0 (the
        # n = 11 box exits 1 on the float cone rule's known failures)
        code, payload, _ = run_json(capsys, ["verify", *argv])
        assert (code, payload["command"]) == (want, "verify")

    @pytest.mark.parametrize("m", ["0", "2"])
    def test_a_box_that_overflows_the_core_is_refused_whatever_m(self, capsys, m):
        # (1 + F)^3 passes 2^996 a little past x_radius 2e49 at n = 3
        assert run(["verify", "-n", "3", "-m", m, "--x-radius", "3e49"]) == 2
        assert capsys.readouterr().err.startswith(
            "sigmak: error: x_radius = 3e+49 with t_range = (-2.0, 2.0) lets the Hessian norm "
            "reach 1.33e+100; sigma_1..sigma_3 stay finite only while (1 + that)^3 <= 2^996"
        )

    def test_repeat_runs_identical_modulo_elapsed(self, capsys):
        argv = ["verify", "-n", "3", "--samples", "120", "--seed", "42"]
        _, first, _ = run_json(capsys, argv)
        _, second, _ = run_json(capsys, argv)
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert json.dumps(first) == json.dumps(second)

    def test_min_sigma_j_is_sigma_k_exactly(self, capsys):
        # sigma_k = 1 at every sample and sigma_j, j < k, stays above it on
        # this box; the dd sigmas resolve that minimum exactly (the float
        # charpoly gave 0.99999998...)
        code, payload, _ = run_json(
            capsys, ["verify", "-n", "7", "--samples", "500", "--seed", "0"]
        )
        assert code == 0
        assert payload["report"]["min_sigma_j"] == 1.0


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite number {token} in output")

    return json.loads(text, parse_constant=refuse)


class TestBadInput:
    # TestParserBuild also parses the argvs of NAMED_FIELDS, BAD_BOXES and
    # NEGATIVE_VALUES, with the parser of one call and with a full parser
    NAMED_FIELDS = [
        (["verify", "-n", "3", "--x-radius", "inf", "--samples", "5"], "x_radius"),
        (["verify", "-n", "3", "--x-radius", "nan", "--samples", "5"], "x_radius"),
        (["verify", "-n", "3", "--x-radius", "1e160", "--samples", "5"], "x_radius"),
        (["verify", "-n", "3", "--x-radius", "1e60", "--samples", "5"], "x_radius"),
        (["verify", "-n", "3", "--t-min=-inf", "--samples", "5"], "t_range"),
        (["eval", "-n", "3", "--point", "nan,0,0"], "point coordinate x"),
        (["eval", "-n", "3", "--point", "0,0,inf"], "point coordinate t"),
        (["eval", "-n", "3", "--point", "1e200,0,0"], "point x = (1e+200"),
        (["eval", "-n", "3", "--point", "1,,0,0"], "field 2 of '1,,0,0' is empty"),
        (["eval", "-n", "3", "--point", "1,0,0,"], "field 4 of '1,0,0,' is empty"),
        (["verify", "-n", "3", "--seed", "-1"], "seed must fit in 64 unsigned bits, got -1"),
        (
            ["verify", "-n", "3", "--seed", "18446744073709551616"],
            "seed must fit in 64 unsigned bits, got 18446744073709551616",
        ),
        (["eval", "-n", "3", "--point", "-nan,0,0"], "point coordinate x"),
        (["verify", "-n", "3", "--x-radius", "-nan"], "x_radius must be finite"),
    ]

    @pytest.mark.parametrize("argv, field", NAMED_FIELDS)
    def test_exits_2_naming_the_field(self, capsys, argv, field):
        assert run(argv) == 2
        assert field in capsys.readouterr().err

    BAD_BOXES = [
        ("--samples", "0", "count must be positive, got 0"),
        ("--t-max", "800", "|t| = 800 exceeds the exponential overflow guard (700 for k = 2)"),
        (
            "--x-radius", "1e200",
            "x_radius = 1e+200 with t_range = (-2.0, 2.0) lets the Hessian norm reach "
            "inf; sigma_1..sigma_3 stay finite only while (1 + that)^3 <= 2^996",
        ),
    ]

    @pytest.mark.parametrize(
        "option, value, message", BAD_BOXES, ids=["samples", "t_range", "x_radius"]
    )
    def test_a_bad_box_is_refused_before_the_exact_gate(
        self, capsys, monkeypatch, option, value, message
    ):
        # a box refused by SampleBox or by the scan's guards costs no exact
        # certification of n, and reads as it did
        def gate(n):
            raise AssertionError(f"the exact gate ran for n = {n}")

        monkeypatch.setattr(cli, "verify_exact", gate)
        assert run(["verify", "-n", "3", option, value]) == 2
        assert capsys.readouterr().err == f"sigmak: error: {message}\n"

    NEGATIVE_VALUES = [
        ["eval", "-n", "3", "--point", "-1,0,0.5"],
        ["eval", "-n", "3", "--point", "-.5,0.25,-1e-1"],
        ["verify", "-n", "3", "--samples", "20", "--t-min", "-1e-1"],
        ["verify", "-n", "3", "--samples", "20", "--t-min", "-2.5E0", "--t-max", "-1e-3"],
        ["verify", "-n", "3", "--samples", "5", "--t-min", "-inf"],
        ["eval", "-n", "3", "--point", "-Infinity,0,0"],
        ["eval", "-n", "3", "--point", "-nan,0,0"],
        ["verify", "-n", "3", "--x-radius", "-nan"],
    ]

    @pytest.mark.parametrize("argv", NEGATIVE_VALUES)
    def test_negative_value_after_a_space(self, capsys, argv):
        # argparse read these values as flags ("expected one argument", and
        # -nan as -n with the value "an"); the space-separated form must act
        # as the --opt=value form
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        outcomes = []
        for form in (argv, joined):
            code, payload, err = run_json(capsys, form)
            if payload is not None:
                payload.pop("elapsed_seconds")
            outcomes.append((code, payload, err))
        assert outcomes[0] == outcomes[1]
        assert "expected one argument" not in outcomes[0][2]

    # a token is finite, non-finite, or a float literal that overflows to inf
    TOKENS = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(
            ["nan", "-inf", "1e400", "-1e400", "1e160", "-700", "700", "1e300", "1e150"]
        ),
    )
    FIELD_NAMES = {
        "--x-radius": ("x_radius",),
        "--t-min": ("t_range", "|t|"),
        "--point": ("point coordinate", "point x =", "|t|"),
        "--matrix-file": ("is not a finite number", "could overflow"),
        "--expected": ("argument --expected: not a finite number",),
    }

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        flag=st.sampled_from(
            ["--x-radius", "--t-min", "--point", "--matrix-file", "--expected"]
        ),
        tokens=st.lists(TOKENS, min_size=3, max_size=3),
    )
    def test_random_tokens_exit_2_or_print_strict_json(self, capsys, tmp_path, flag, tokens):
        if flag == "--point":
            argv = ["eval", "-n", "3", "--point", ",".join(tokens)]
        elif flag == "--matrix-file":
            # the symmetric 2x2 matrix [[t0, t1], [t1, t2]]
            path = tmp_path / "m.txt"
            path.write_text(f"2\n{tokens[0]} {tokens[1]}\n{tokens[1]} {tokens[2]}\n")
            argv = ["cone-check", "-k", "2", "--matrix-file", str(path)]
        elif flag == "--expected":
            path = tmp_path / "m.txt"
            path.write_text("1\n0.5\n")
            argv = ["phase-check", "--matrix-file", str(path), f"--expected={tokens[0]}"]
        else:
            argv = ["verify", "-n", "3", "--samples", "3", f"{flag}={tokens[0]}"]
        code = run(argv)
        out = capsys.readouterr()
        if code == 2:
            assert any(name in out.err for name in self.FIELD_NAMES[flag]), out.err
        else:
            assert code in (0, 1)
            strict_json(out.out)


class TestVerifyBeyondCertifiedRange:
    @pytest.mark.parametrize("n", [689, 1001])
    def test_past_the_float_range_of_a_the_radius_guard_refuses(self, capsys, n):
        # no box passes the radius guard there: verify and eval exit 2 with
        # its message, before any exact certification (the default t range
        # already fails the exponent guard at n = 1001)
        point = ",".join(["0.5"] * n)
        for argv, what in (
            (
                ["verify", "-n", str(n), "--samples", "3", "--t-min", "-1", "--t-max", "1"],
                "x_radius = 3 with t_range = (-1.0, 1.0)",
            ),
            (["eval", "-n", str(n), "--point", point], "point x = (0.5, 0.5, "),
        ):
            assert run(argv) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith(f"sigmak: error: {what}")
            assert out.err.endswith(
                f"sigma_1..sigma_{n} stay finite only while (1 + that)^{n} <= 2^996\n"
            )

    def test_n11_is_conservatively_uncertifiable(self, capsys):
        # the exact certificate holds, but the scale-aware strict-positivity
        # thresholds exceed what float64 can certify at k = 6 box corners
        code, payload, _ = run_json(
            capsys, ["verify", "-n", "11", "--samples", "20", "--seed", "3"]
        )
        assert code == 1
        assert payload["exact_certified"] is True
        assert payload["checks_passed"] is False
        assert payload["report"]["max_abs_residual"] <= 1e-9

    @pytest.mark.parametrize(
        "argv, residual",
        [
            # the README's known conservative failures: Hessian entries ~e^28
            # and ~1e25 pass the scan's audit (no exit 2) and fail only the
            # fixed residual gate
            (["verify", "-n", "3", "--samples", "50", "--t-min", "27", "--t-max", "28"], 8e-7),
            (["verify", "-n", "5", "--samples", "50", "--x-radius", "1e12"], 6e-5),
        ],
    )
    def test_huge_entries_fail_the_residual_gate(self, capsys, argv, residual):
        code, payload, _ = run_json(capsys, argv)
        assert code == 1
        assert payload["exact_certified"] is True
        assert payload["checks_passed"] is False
        assert payload["residual_gate"] < payload["report"]["max_abs_residual"]
        assert payload["report"]["max_abs_residual"] == pytest.approx(residual, rel=0.1)


class TestVerifyExact:
    def test_n7(self, capsys):
        code, payload, _ = run_json(capsys, ["verify-exact", "-n", "7"])
        assert code == 0
        assert payload["ok"] is True
        assert payload["residual_terms"] == []

    @pytest.mark.parametrize("n", [11, 13])
    def test_past_the_old_cap(self, capsys, n):
        code, payload, _ = run_json(capsys, ["verify-exact", "-n", str(n)])
        assert code == 0
        assert payload["ok"] is True
        assert payload["cone_ok"] is True
        assert payload["cone_failure_j"] is None
        assert payload["residual_terms"] == []

    def test_verify_gates_on_the_cone_certificate(self, capsys, monkeypatch):
        # sigma_k = 1 alone does not certify: a failed cone verdict fails verify
        monkeypatch.setattr(
            cli, "verify_exact",
            lambda n: Certification(n_base=n, residual={}, cone_failure_j=1),
        )
        code, payload, _ = run_json(capsys, ["verify", "-n", "3", "--samples", "5"])
        assert code == 1
        assert payload["exact_certified"] is False
        assert payload["checks_passed"] is False


@pytest.fixture
def matrix_file(tmp_path):
    def write(rows):
        dim = len(rows)
        lines = [str(dim)] + [" ".join(str(v) for v in row) for row in rows]
        path = tmp_path / "matrix.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    return write


class TestConeCheck:
    def test_elliptic_matrix(self, capsys, matrix_file):
        path = matrix_file([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -0.75]])
        code, payload, _ = run_json(capsys, ["cone-check", "--matrix-file", path, "-k", "2"])
        assert code == 0
        assert payload["sigma_positivity"]["in_cone"] is True
        assert payload["lemma"]["in_cone"] is True
        assert payload["lemma"]["negative_count"] == 1
        assert payload["sigma_positivity"]["sigmas"][1] == pytest.approx(1.0)

    def test_non_elliptic_matrix_exits_1(self, capsys, matrix_file):
        path = matrix_file([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 5.0]])
        code, payload, _ = run_json(capsys, ["cone-check", "--matrix-file", path, "-k", "2"])
        assert code == 1
        assert payload["sigma_positivity"]["in_cone"] is False

    def test_missing_file_exits_2(self, capsys):
        assert run(["cone-check", "--matrix-file", "/nonexistent/m.txt", "-k", "2"]) == 2

    def test_asymmetric_file_exits_2(self, capsys, matrix_file):
        path = matrix_file([[1.0, 0.5], [0.4, 1.0]])
        assert run(["cone-check", "--matrix-file", path, "-k", "1"]) == 2
        err = capsys.readouterr().err
        assert (
            f"matrix file {path}: matrix asymmetry 0.1 between entries (1, 2) and (2, 1) "
            "exceeds tolerance 1e-12"
        ) in err, err
        # of two asymmetric pairs, the worst is named
        path = matrix_file([[1.0, 0.5, 0.0], [0.5000000001, 1.0, 0.25], [0.0, 0.250000001, 1.0]])
        assert run(["phase-check", "--matrix-file", path]) == 2
        err = capsys.readouterr().err
        assert f"matrix file {path}: matrix asymmetry 1e-09 between entries (2, 3) and (3, 2)" in err, err

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_nonpositive_dimension_is_named(self, capsys, tmp_path, dim):
        path = tmp_path / "m.txt"
        path.write_text(f"{dim}\n1 0\n0 1\n")
        for argv in (["cone-check", "-k", "1"], ["phase-check"]):
            assert run(argv + ["--matrix-file", str(path)]) == 2
            err = capsys.readouterr().err
            assert (
                f"matrix file {path}: the dimension must be a positive integer, got {dim}"
            ) in err, err

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n")
        assert run(["cone-check", "--matrix-file", str(path), "-k", "1"]) == 2

    @pytest.mark.parametrize(
        "text, named",
        [
            ("2\nnan 0\n0 1\n", "entry 'nan' at row 1, column 1 is not a finite number"),
            ("2\n1 0\n0 -inf\n", "entry '-inf' at row 2, column 2 is not a finite number"),
            ("2\n1 two\ntwo 1\n", "entry 'two' at row 1, column 2 is not a finite number"),
            ("2\n1e300 0\n0 1e300\n", "entries up to 1e+300 in dimension 2 could overflow"),
            ("1\n1e200\n", "entries up to 1e+200 in dimension 1 could overflow"),
            (b"2\n1 \xff\n2 1\n", "'utf-8' codec can't decode byte 0xff in position 4"),
        ],
    )
    def test_bad_entries_exit_2_naming_the_file(self, capsys, tmp_path, text, named):
        path = tmp_path / "m.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        for argv in (["cone-check", "-k", "1"], ["phase-check"]):
            assert run(argv + ["--matrix-file", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"matrix file {path}" in err and named in err, err

    def test_largest_accepted_scale_stays_finite(self, capsys, matrix_file):
        # (1 + 2 * 1e149)^2 < 2^996: sigma_2 ~ 1e298 and fro**2 stay finite
        path = matrix_file([[1e149, 0.0], [0.0, 1e149]])
        code, payload, _ = run_json(capsys, ["cone-check", "--matrix-file", path, "-k", "2"])
        assert code == 0
        assert payload["sigma_positivity"]["sigmas"][1] == pytest.approx(1e298)


class TestPhaseCheck:
    def test_critical_phase(self, capsys, matrix_file):
        path = matrix_file([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -0.75]])
        code, payload, _ = run_json(
            capsys,
            ["phase-check", "--matrix-file", path, "--expected", str(math.pi / 2)],
        )
        assert code == 0
        assert payload["phase"] == pytest.approx(math.pi / 2)
        assert payload["within_tolerance"] is True

    def test_wrong_expected_exits_1(self, capsys, matrix_file):
        path = matrix_file([[1.0]])
        code, payload, _ = run_json(
            capsys, ["phase-check", "--matrix-file", path, "--expected", "0.5"]
        )
        assert code == 1
        assert payload["within_tolerance"] is False

    def test_no_expectation_is_informational(self, capsys, matrix_file):
        path = matrix_file([[0.0, 1.0], [1.0, 0.0]])
        code, payload, _ = run_json(capsys, ["phase-check", "--matrix-file", path])
        assert code == 0
        assert payload["phase"] == pytest.approx(0.0)
        assert payload["within_tolerance"] is None

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "half"])
    def test_non_finite_expected_exits_2(self, capsys, matrix_file, token):
        # NaN or Infinity would otherwise be printed as non-strict JSON
        path = matrix_file([[1.0]])
        assert run(["phase-check", "--matrix-file", path, f"--expected={token}"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --expected: not a finite number: {token!r}" in out.err


class TestMatrixCommandsDiagonalizeOnce:
    """One Jacobi per matrix command, and one conversion of the rows the file
    reader has checked: at the boundary of eigenvalues_symmetric."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}

        def count(name):
            counts[name] = 0
            wrapped = getattr(symfunc, name)

            def counted(*args):
                counts[name] += 1
                return wrapped(*args)

            monkeypatch.setattr(symfunc, name, counted)

        count("_cyclic_jacobi")
        count("_float_rows")
        return counts

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cone_check(self, capsys, matrix_file, calls, k):
        path = matrix_file([[2.0, 0.5, 0.0], [0.5, 2.0, 1.0], [0.0, 1.0, -0.75]])
        assert run(["cone-check", "--matrix-file", path, "-k", str(k)]) in (0, 1)
        assert calls == {"_cyclic_jacobi": 1, "_float_rows": 1}

    def test_phase_check(self, capsys, matrix_file, calls):
        path = matrix_file([[2.0, 0.5, 0.0], [0.5, 2.0, 1.0], [0.0, 1.0, -0.75]])
        assert run(["phase-check", "--matrix-file", path, "--expected", "0.5"]) == 1
        assert calls == {"_cyclic_jacobi": 1, "_float_rows": 1}


def payloads(capsys, path):
    """The cone-check payload for every k and the phase-check payload of a
    matrix file, elapsed_seconds removed, with their exit codes."""
    dim = len(cli._read_matrix_file(path))
    argvs = [["cone-check", "-k", str(k)] for k in range(1, dim + 1)] + [["phase-check"]]
    got = []
    for argv in argvs:
        code, payload, err = run_json(capsys, argv + ["--matrix-file", path])
        assert payload is not None, err
        payload.pop("elapsed_seconds")
        got.append((code, payload))
    return got


class TestMatrixFileReader:
    """The file reader checks every entry, then averages each mirrored pair
    to (v + w) / 2, which the overflow guard keeps finite."""

    def test_a_pair_within_tolerance_reads_as_its_mean(self, capsys, matrix_file, tmp_path):
        noisy = payloads(capsys, matrix_file([[1.0, 2.0 + 1e-13], [2.0, 1.0]]))
        mean = (2.0 + 1e-13 + 2.0) / 2.0
        (tmp_path / "mean.txt").write_text(f"2\n1.0 {mean!r}\n{mean!r} 1.0\n")
        assert noisy == payloads(capsys, str(tmp_path / "mean.txt"))

    @pytest.mark.parametrize(
        "v, w, mean",
        [
            (5e-324, 5e-324, 5e-324),  # v / 2 + w / 2 would round to 0
            (2.0 + 1e-13, 2.0, (2.0 + 1e-13 + 2.0) / 2.0),
            (-2.0, -2.0 - 1e-13, (-2.0 - 1e-13 - 2.0) / 2.0),
            # the largest entry the overflow guard lets into a 2 x 2 file
            (float.fromhex("0x1.0000000000058p+497"),) * 3,
        ],
        ids=["subnormal", "noise-above", "noise-below", "guard-edge"],
    )
    def test_a_mirrored_pair_becomes_its_mean(self, matrix_file, v, w, mean):
        assert cli._read_matrix_file(matrix_file([[0.0, v], [w, 0.0]])) == [
            [0.0, mean], [mean, 0.0]
        ]

    @pytest.mark.parametrize(
        "v", [float.fromhex("0x1.0000000000059p+497"), 1e308, -1.7e308],
        ids=["past-guard-edge", "1e+308", "-1.7e+308"],
    )
    def test_a_pair_past_the_guard_is_refused(self, capsys, matrix_file, v):
        path = matrix_file([[0.0, v], [v, 0.0]])
        for argv in (["cone-check", "-k", "1"], ["phase-check"]):
            assert run(argv + ["--matrix-file", path]) == 2
            err = capsys.readouterr().err
            named = f"entries up to {abs(v):.3g} in dimension 2 could overflow"
            assert f"matrix file {path}: {named}" in err, err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cells, named",
        [
            ([(0, 0)], "row 1, column 1"),
            ([(2, 2)], "row 3, column 3"),
            ([(1, 2), (2, 1)], "row 2, column 3"),
            ([(2, 0)], "row 3, column 1"),
        ],
        ids=["first-diagonal", "last-diagonal", "mirrored-pair", "lower-triangle"],
    )
    def test_a_non_finite_entry_is_named(self, capsys, matrix_file, bad, cells, named):
        # finiteness is checked before symmetry: a lone non-finite entry
        # off the diagonal is named as such, not as an asymmetric pair
        rows = [[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]]
        for i, j in cells:
            rows[i][j] = bad
        path = matrix_file(rows)
        assert run(["phase-check", "--matrix-file", path]) == 2
        err = capsys.readouterr().err
        assert f"matrix file {path}: entry '{bad}' at {named} is not a finite number" in err, err

    def test_a_byte_order_mark_is_skipped(self, capsys, tmp_path):
        text = "3\n2 0.5 0\n0.5000000000001 2 0\n0 0 -0.75\n"
        (tmp_path / "plain.txt").write_text(text, encoding="utf-8")
        (tmp_path / "bom.txt").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.txt").read_bytes().startswith(b"\xef\xbb\xbf")
        assert payloads(capsys, str(tmp_path / "bom.txt")) == payloads(
            capsys, str(tmp_path / "plain.txt")
        )


@pytest.mark.usefixtures("one_cpu")
class TestScanBuildsNoPerSampleObjects:
    """The scan carries each sample as floats, audited ones included: it
    builds one Point, for the reported argmax, and no ConeVerdict at all."""

    def test_verify_n7(self, capsys, monkeypatch):
        from sigmak import cone
        from sigmak.solution import Point

        points = []
        post_init = Point.__post_init__

        def counted(pt):
            points.append(pt)
            post_init(pt)

        def refuse(verdict):
            raise AssertionError("the scan built a ConeVerdict")

        monkeypatch.setattr(Point, "__post_init__", counted)
        monkeypatch.setattr(cone.ConeVerdict, "__post_init__", refuse)
        assert run(["verify", "-n", "7", "--samples", "500", "--seed", "0"]) == 0
        assert len(points) == 1


class TestLargeTracelessMatrix:
    # Its eigenvalues sum to 0 up to a rounding of ~1e-10: a trace check
    # relative to 1 + |trace| rather than to 1 + ||M||_F would refuse it.
    ROWS = [
        [40000.0, 1620000.0, -50000.0],
        [1620000.0, -680000.0, -300000.0],
        [-50000.0, -300000.0, 640000.0],
    ]

    def test_phase_check(self, capsys, matrix_file):
        code, payload, err = run_json(
            capsys, ["phase-check", "--matrix-file", matrix_file(self.ROWS)]
        )
        assert code == 0, err
        a = np.array(self.ROWS)
        want = np.linalg.eigvalsh(a)
        assert np.max(np.abs(np.array(payload["eigenvalues"]) - want)) <= 1e-9 * np.linalg.norm(a)

    def test_cone_check(self, capsys, matrix_file):
        code, payload, err = run_json(
            capsys, ["cone-check", "-k", "1", "--matrix-file", matrix_file(self.ROWS)]
        )
        assert code == 1, err
        assert payload["sigma_positivity"]["in_cone"] is False


class TestJacobiFailureExits2:
    """A Jacobi that cannot converge or loses the trace is a numerical failure,
    and so is a failed exact audit of a scan sample."""

    ROWS = [[2.0, 0.5, 0.0], [0.5, 2.0, 1.0], [0.0, 1.0, -0.75]]

    @pytest.mark.parametrize(
        "constant, value, message",
        [
            ("JACOBI_MAX_SWEEPS", 0, "float64 Jacobi did not converge in 0 sweeps"),
            ("TRACE_REL_TOL", -1.0, "float64 eigenvalue sum drifted from the trace"),
        ],
    )
    def test_matrix_commands(self, capsys, matrix_file, monkeypatch, constant, value, message):
        monkeypatch.setattr(symfunc, constant, value)
        path = matrix_file(self.ROWS)
        for argv in (["cone-check", "-k", "2"], ["phase-check"]):
            assert run(argv + ["--matrix-file", path]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert f"sigmak: numerical failure: {message}" in out.err, out.err

    def test_scan_names_the_sample(self, capsys, monkeypatch):
        from sigmak import verify

        monkeypatch.setattr(verify, "SIGMA_AUDIT_UNITS", -1.0)
        assert run(["verify", "-n", "3", "--samples", "3", "--seed", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "sigmak: numerical failure: sample 0 at " in out.err, out.err
        assert "structured sigma_1 disagrees with the exact sigma_1(N) / D^1 by " in out.err


# The n = 3 solution Hessian at x = (1.25, -0.5), t = 0.3, as eval computes it.
HESSIAN_N3 = """3
2.6997176151520064 0.0 3.374647018940008
0.0 2.6997176151520064 -1.3498588075760032
3.374647018940008 -1.3498588075760032 1.2819648363259322
"""


# A fixed indefinite 14 x 14 matrix with entries in [-1, 1], eight of its
# eigenvalues negative.
MATRIX_14 = """14
-0.786 0.405 0.304 0.881 -0.458 -0.488 0.468 0.317 -0.394 0.368 -0.207 0.555 -0.763 -0.553
0.405 0.803 -0.284 -0.479 0.609 0.263 -0.701 0.103 0.328 -0.67 0.303 -0.754 -0.326 -0.834
0.304 -0.284 -0.591 0.956 -0.193 0.981 -0.123 0.215 0.745 0.374 -0.777 0.178 0.267 -0.638
0.881 -0.479 0.956 -0.811 0.75 0.028 -0.612 -0.095 -0.564 0.596 0.001 -0.795 0.636 -0.821
-0.458 0.609 -0.193 0.75 -0.439 -0.944 0.481 -0.772 0.052 -0.814 -0.039 0.371 0.07 -0.09
-0.488 0.263 0.981 0.028 -0.944 -0.03 -0.126 0.191 -0.81 -0.051 -0.527 0.731 0.878 -0.867
0.468 -0.701 -0.123 -0.612 0.481 -0.126 -0.713 0.407 0.143 -0.962 0.41 0.888 -0.154 -0.305
0.317 0.103 0.215 -0.095 -0.772 0.191 0.407 0.139 0.878 -0.473 -0.395 -0.623 0.257 -0.061
-0.394 0.328 0.745 -0.564 0.052 -0.81 0.143 0.878 -0.488 -0.224 -0.93 -0.375 0.966 0.172
0.368 -0.67 0.374 0.596 -0.814 -0.051 -0.962 -0.473 -0.224 -0.435 0.872 -0.283 -0.497 -0.93
-0.207 0.303 -0.777 0.001 -0.039 -0.527 0.41 -0.395 -0.93 0.872 -0.708 -0.602 -0.54 0.746
0.555 -0.754 0.178 -0.795 0.371 0.731 0.888 -0.623 -0.375 -0.283 -0.602 -0.471 -0.503 0.208
-0.763 -0.326 0.267 0.636 0.07 0.878 -0.154 0.257 0.966 -0.497 -0.54 -0.503 0.834 -0.417
-0.553 -0.834 -0.638 -0.821 -0.09 -0.867 -0.305 -0.061 0.172 -0.93 0.746 0.208 -0.417 0.523
"""


class TestPayloadPins:
    """sha256 of each payload, elapsed_seconds removed, as json.dumps(sort_keys).

    The digests are fixed across versions (criterion 10 only compares repeats
    within one version): a refactor of the float or double-double pipeline
    must leave these reports byte-identical.
    """

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["verify", "-n", "3", "--samples", "200", "--seed", "0"], 0,
             "f82073bfc2e104e32f90cae148fca89413b84712e6e7ec2a138eed75d3c75f90"),
            (["verify", "-n", "3", "-m", "1", "--samples", "100", "--seed", "5"], 0,
             "45886c8f05a95e6359c7b1153c43d400b0d23b3a15c904c213d20a6a04ab5013"),
            (["verify", "-n", "7", "--samples", "50", "--seed", "0"], 0,
             "6d15a7cdc44fe7a36ed3b0af890dcc46902e3063a019466c75a6a63cf443d0cb"),
            (["phase-check", "--matrix-file", "hessian.txt"], 0,
             "2f1f6c7234e5460da3bb8896397ef8ab216ef64d338b9d30407c130b5be0ff31"),
            (["phase-check", "--matrix-file", "hessian.txt", "--expected", "1.5707963267948966"], 0,
             "f46f309188260547198d709a9dd09ff82df87bd2c6f52d09a3e1cd714986e807"),
            (["phase-check", "--matrix-file", "matrix_14.txt"], 0,
             "0195378c2bf0f848417ffd119195faf5de1fd1fdc5dc6ab1c6a3ae0d9acb00ce"),
            (["cone-check", "-k", "7", "--matrix-file", "matrix_14.txt"], 1,
             "bd62927dcbc44fe361c424abf0162342448f6e28a426cf7caf275910db306f28"),
            # in the cone, and the lemma holds with one negative eigenvalue
            (["cone-check", "-k", "2", "--matrix-file", "hessian.txt"], 0,
             "45560abfb28af0d82d8e2d184b341a15ba132fcabb5605dda4113109bddb9a16"),
            # the float cone rule's known failures at j = k (see TestVerdictPins)
            (["verify", "-n", "9", "--samples", "1000", "--seed", "0"], 1,
             "38c036db3b31a8e76b926bc4586210df48c360785092bfc68f5e9de28b721746"),
            (["verify", "-n", "5", "-m", "2", "--samples", "300", "--seed", "3"], 0,
             "08b2674829eb539149862e76e83ff614bfdc47bb95966d7abe87310507896ee4"),
            # 2000 dummy coordinates, whose words the scan does not draw: one
            # range, then two, the second from mid-block
            (["verify", "-n", "3", "-m", "2000", "--samples", "100", "--seed", "0"], 0,
             "63eb1efdb9080bcd3140c5d7d26592ef95ab18080b4e103f035a50dc0c3ce2a3"),
            (["verify", "-n", "3", "-m", "2000", "--samples", "450", "--seed", "0"], 0,
             "64c601dccdcd65ce36b89b2bbdb820c830709a035190f8f9d99f650c7c82d8e8"),
            (["verify", "-n", "13", "--samples", "200", "--seed", "0"], 1,
             "cc02fb329311f71d671abfd67e701445a14a390bbf2f05627cb48990ce984e31"),
            # three n at which the decay coefficient of h'' moved in its low
            # word when it came to be 1/A rounded once; the reports did not
            (["verify", "-n", "15", "--samples", "300", "--seed", "0"], 1,
             "9bd5de9b0a0fec91f5f3e397397480fde37beed4ae8299ee25aff5e2475310d1"),
            (["verify", "-n", "31", "-m", "2", "--samples", "300"], 1,
             "f032ba352b141d82ac011113ced68e9312dae0ae1130358c39ee27380b5c859f"),
            (["verify", "-n", "45", "--samples", "300"], 1,
             "9afbc0d64ecdab1bd284dd8b7dbe51fe54cd221b2fcf3af47a782b4265b31a37"),
            # the two eval calls of CI: value, gradient and Hessian rows
            (["eval", "-n", "7", "-m", "2", "--point", "1,-0.5,2,0.3,-1.2,0.7,0.4,0.1,0.2"], 0,
             "064f273ca1d539e92aa34bda7f895839b13d99fee5102602e1e734f75ae3d56d"),
            (["eval", "-n", "3", "--point", "-1,0,0.5"], 0,
             "532cc2fbde3347ef4cb36b6d59c0de2c7b1fb07bad76efe5889ebe4d5fdd85ca"),
        ],
    )
    def test_payload_digest(self, capsys, tmp_path, monkeypatch, argv, code, digest):
        (tmp_path / "hessian.txt").write_text(HESSIAN_N3)
        (tmp_path / "matrix_14.txt").write_text(MATRIX_14)
        monkeypatch.chdir(tmp_path)
        got_code, payload, _ = run_json(capsys, argv)
        payload.pop("elapsed_seconds")
        canonical = json.dumps(payload, sort_keys=True).encode()
        assert (got_code, hashlib.sha256(canonical).hexdigest()) == (code, digest)

    def test_text_report_digest(self, capsys, tmp_path, monkeypatch):
        # sha256 of the --output text stdout without its elapsed_seconds line
        (tmp_path / "hessian.txt").write_text(HESSIAN_N3)
        monkeypatch.chdir(tmp_path)
        code = run(["cone-check", "-k", "2", "--matrix-file", "hessian.txt", "--output", "text"])
        lines = capsys.readouterr().out.splitlines(keepends=True)
        text = "".join(ln for ln in lines if not ln.startswith("elapsed_seconds"))
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (
            0, "277870d2c5077c6e09638eb8e6c9ca36b4b70bcc86bf90318cf3cb7319255996"
        )


class TestVerdictPins:
    """sha256 of each verify payload without its rounding-level fields.

    Like TestPayloadPins, but max_abs_residual and argmax_point are removed as
    well: how the double-double eigenvalues are computed moves the residual in
    its last digits and so its argmax, never an exit code, a verdict count,
    min_sigma_j or the phase verdict.
    """

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["verify", "-n", "3", "--samples", "200", "--seed", "0"], 0,
             "821c96ab401688d546227da35d919b04a2ebece00ed598362746bc569221ebb3"),
            (["verify", "-n", "3", "-m", "1", "--samples", "100", "--seed", "5"], 0,
             "aa5a52becdd50ea8f51e01d111785fdf5867eed61813f7438b14b8caf302fcef"),
            (["verify", "-n", "7", "--samples", "50", "--seed", "0"], 0,
             "5020349c0c066b58b8594fffcdc0d0ea39cc46b265d457649c10e3d818fa6031"),
            # failing scans: 3, 36, 188 and 419 cone and lemma failures, all
            # at j = k, where the float rule 1e-12 (1 + fro^k) exceeds
            # sigma_k = 1; a sample with fro^k within rounding of 1e12 would
            # move a count, so these pin how the scan forms fro
            (["verify", "-n", "9", "--samples", "1000", "--seed", "0"], 1,
             "52d391dbe889bb5cf07b540ccbd180d5c86be0b9d2e225610cad59a47b647874"),
            (["verify", "-n", "11", "--samples", "200", "--seed", "0"], 1,
             "a6221d7f22a90bff9a1cafcf23842eff9f91758638e52b451989ae5c7e555362"),
            (["verify", "-n", "11", "--samples", "1000", "--seed", "0"], 1,
             "4d5a9de90bc7d512237cd439a4007f9f6fd6728eb5376de0677b81c53bd9329c"),
            (["verify", "-n", "13", "--samples", "1000", "--seed", "0"], 1,
             "afb36d913d862000841e92ef51f2ec0e8c72953cca0217e7fe6dac2c5b357606"),
        ],
    )
    def test_verdict_digest(self, capsys, argv, code, digest):
        got_code, payload, _ = run_json(capsys, argv)
        payload.pop("elapsed_seconds")
        payload["report"].pop("max_abs_residual")
        payload["report"].pop("argmax_point")
        canonical = json.dumps(payload, sort_keys=True).encode()
        assert (got_code, hashlib.sha256(canonical).hexdigest()) == (code, digest)


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_stops_quietly(self, unbuffered):
        # the reader closes the pipe before the report is written, as
        # `sigmak verify ... | true` does: no traceback, exit 128 + SIGPIPE.
        # Block-buffered stdout (the default on a pipe) keeps the report in
        # the buffer until it is flushed; unbuffered stdout fails inside print
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigmak", "verify", "-n", "3", "--samples", "300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
        assert err == ""


class TestNumpyFreeRuntime:
    """Every command runs on a Python without numpy: numpy is the tests' oracle only."""

    # an import of numpy raises ImportError once sys.modules maps it to None
    NO_NUMPY = (
        "import runpy, sys; sys.modules['numpy'] = None; "
        "runpy.run_module('sigmak', run_name='__main__')"
    )

    @staticmethod
    def python(*args):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "-n", "5"],
            ["eval", "-n", "3", "--point", "1,0.5,-0.3"],
            ["verify", "-n", "3", "--samples", "200"],
            ["verify-exact", "-n", "5"],
            ["cone-check", "-k", "2", "--matrix-file", "{matrix}"],
            ["phase-check", "--matrix-file", "{matrix}", "--expected", "1.5707963267948966"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_matches_in_process_run(self, capsys, tmp_path, argv):
        matrix = tmp_path / "m.txt"
        matrix.write_text("3\n2 0 0.5\n0 2 0\n0.5 0 -0.75\n")
        argv = [a.format(matrix=matrix) for a in argv]
        proc = self.python("-c", self.NO_NUMPY, *argv)
        code, payload, err = run_json(capsys, argv)
        assert proc.stderr == err
        got = json.loads(proc.stdout)
        got.pop("elapsed_seconds")
        payload.pop("elapsed_seconds")
        assert (proc.returncode, got) == (code, payload)

    def test_import_leaves_numpy_out(self):
        proc = self.python(
            "-c", "import sys, sigmak, sigmak.cli; print('numpy' in sys.modules)"
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["construct", "-n", "3", "--frob"]) == 2

    def test_malformed_number(self, capsys):
        assert run(["construct", "-n", "three"]) == 2

    def test_text_output(self, capsys):
        code = run(["construct", "-n", "3", "--output", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "A: 4" in out
        assert "h: (1/4)*exp(-t) + (-1)*exp(t)" in out


def subparsers(parser):
    """The name -> subparser map of a parser from cli._build_parser."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def full_parser():
    """The reference: a parser with a real parser, and its arguments, for
    every command of cli._COMMANDS.  It is the parser of an argv that names
    no command, whose map entries all hold that top-level parser, with each
    entry replaced by the parser that a call naming that command builds."""
    parser = cli._build_parser([])
    choices = subparsers(parser)
    for name in cli._COMMANDS:
        choices[name] = subparsers(cli._build_parser([name]))[name]
    return parser


def parse_outcome(capsys, parser, argv):
    """The repr of the parsed namespace (a nan value equals itself there), or
    the exit code, stdout and stderr of a parse that exits."""
    try:
        return repr(parser.parse_args(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


class TestParserBuild:
    """A call builds a parser, with its arguments and its -h, only for the
    command its argv names; every other command keeps its choice and help
    line, with the top-level parser in its map entry, and every outcome is
    as with all parsers present.  The terminal is probed once per call."""

    CORPUS = (
        [
            [],
            ["-h"],
            ["frobnicate"],
            # a command is named but never dispatched to
            ["frobnicate", "verify", "-n", "3"],
            ["-h", "frobnicate"],
            ["verif"],
            ["--foo", "verify", "-n", "3"],
            ["--", "verify", "-n", "3"],
            ["-1", "verify"],
            ["-h", "verify"],
            ["construct", "verify"],
            ["verify", "-n"],
            ["verify", "-n", "3", "--samples", "450", "--output", "text"],
            ["verify-exact", "-n", "5"],
            ["cone-check", "-k", "2", "--matrix-file", "m.txt"],
            ["phase-check", "--matrix-file", "m.txt", "--expected", "-1.5"],
            ["phase-check", "--matrix-file", "m.txt", "--expected", "nan"],
            ["construct", "-n", "three"],
            ["construct", "-n", "3", "--frob"],
            ["construct", "-n", "3", "-m", "2", "--output", "xml"],
        ]
        + [[name, "-h"] for name in cli._COMMANDS]
        + [[name] for name in cli._COMMANDS]
        + [argv for argv, _ in TestBadInput.NAMED_FIELDS]
        + [["verify", "-n", "3", option, value] for option, value, _ in TestBadInput.BAD_BOXES]
        + TestBadInput.NEGATIVE_VALUES
    )

    @pytest.mark.parametrize(
        "argv", list(dict.fromkeys(map(tuple, CORPUS))), ids=lambda a: " ".join(a) or "(none)"
    )
    def test_same_outcome_as_a_full_parser(self, capsys, monkeypatch, argv):
        # at a width that wraps every usage line, at one that wraps the help
        # lines, and at one that wraps neither
        for columns in ("30", "100", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            got = parse_outcome(capsys, cli._build_parser(argv), argv)
            assert got == parse_outcome(capsys, full_parser(), argv), columns

    @pytest.mark.parametrize("argv", [["-h"], *([name, "-n", "3"] for name in cli._COMMANDS)])
    def test_only_the_named_command_has_arguments(self, argv):
        parser = cli._build_parser(argv)
        choices = subparsers(parser)
        assert list(choices) == list(cli._COMMANDS)
        for name, sp in choices.items():
            if name == argv[0]:
                assert isinstance(sp, cli._Parser) and sp is not parser
                usage = sp.format_usage()
                assert usage.startswith(f"usage: sigmak {name} [-h]"), usage
                assert "[--output {json,text}]" in usage
            else:
                assert sp is parser, name

    @pytest.mark.parametrize(
        "argv", [[], ["verify", "-n", "3"]], ids=lambda a: " ".join(a) or "(none)"
    )
    def test_add_parser_may_use_the_parser_it_gets(self, monkeypatch, argv):
        # argparse may use what parser_class returns, e.g. to check a help
        # line: every entry, named or not, formats its command's help line
        # and its own help
        add_parser = argparse._SubParsersAction.add_parser
        seen = []

        def checked(self, name, **kwargs):
            sp = add_parser(self, name, **kwargs)
            formatter = sp._get_formatter()
            seen.append((name, formatter._expand_help(self._choices_actions[-1])))
            assert sp.format_help().startswith("usage: sigmak")
            return sp

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", checked)
        cli._build_parser(argv)
        assert seen == [(name, help_line) for name, (help_line, _, _) in cli._COMMANDS.items()]

    @pytest.mark.parametrize(
        "argv, parsers, lookups",
        [
            (["verify", "-n", "3", "--samples", "5"], 2, 6),
            (["verify-exact", "-n", "3"], 2, 6),
            (["verify", "-h"], 2, None),
            (["construct", "-n"], 2, None),
            ([], 1, None),
            (["-h"], 1, None),
            (["frobnicate"], 1, None),
        ],
        ids=lambda a: (" ".join(a) or "(none)") if isinstance(a, list) else str(a),
    )
    def test_parsers_and_gettext_lookups_per_call(self, capsys, monkeypatch, argv, parsers,
                                                  lookups):
        # the top-level parser and the named command's, each with its three
        # lookups (its two group titles and its -h help): the commands that
        # the call never dispatches to build none; help and error messages
        # add lookups of their own, which vary with the Python version
        inits, texts = [], []
        init, gettext = argparse.ArgumentParser.__init__, argparse._

        def counted(self, *args, **kwargs):
            inits.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        monkeypatch.setattr(argparse, "_", lambda text: texts.append(text) or gettext(text))
        run(argv)
        assert inits == [cli._Parser] * parsers
        assert lookups is None or len(texts) == lookups, texts

    def test_a_verify_run_builds_11_help_formatters(self, capsys, monkeypatch):
        # one for each add_argument, which checks the argument's format, and
        # one for add_subparsers: the top-level -h, the -h of verify and its
        # eight arguments; with a -h on every subcommand a call would build
        # 16, and a parser that gave every command its arguments 31
        built = []
        init = argparse.HelpFormatter.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.HelpFormatter, "__init__", counted)
        assert run(["verify", "-n", "3", "--samples", "5"]) == 0
        assert len(built) == 11

    @pytest.mark.parametrize(
        "argv",
        [["verify", "-n", "3", "--samples", "5"], ["-h"], ["verify", "-h"], ["verify", "-n"],
         ["frobnicate"], []],
        ids=lambda a: " ".join(a) or "(none)",
    )
    def test_one_terminal_probe_per_call(self, capsys, monkeypatch, argv):
        # the parser's formatters, and those that print help or an error,
        # share the one width _build_parser reads
        probes = []
        size = shutil.get_terminal_size

        def counted(*args, **kwargs):
            probes.append(args)
            return size(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        run(argv)
        assert len(probes) == 1
