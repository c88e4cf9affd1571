import hashlib
import json
import math
import os
import subprocess
import sys
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
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["verify", "-n", "3", "--x-radius", "inf", "--samples", "5"], "x_radius"),
            (["verify", "-n", "3", "--x-radius", "nan", "--samples", "5"], "x_radius"),
            (["verify", "-n", "3", "--x-radius", "1e160", "--samples", "5"], "x_radius"),
            (["verify", "-n", "3", "--x-radius", "1e60", "--samples", "5"], "x_radius"),
            (["verify", "-n", "3", "--t-min=-inf", "--samples", "5"], "t_range"),
            (["eval", "-n", "3", "--point", "nan,0,0"], "point coordinate x"),
            (["eval", "-n", "3", "--point", "0,0,inf"], "point coordinate t"),
            (["eval", "-n", "3", "--point", "1e200,0,0"], "point x = (1e+200"),
        ],
    )
    def test_exits_2_naming_the_field(self, capsys, argv, field):
        assert run(argv) == 2
        assert field in capsys.readouterr().err

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
        "--point": ("point", "|t|"),
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
            lambda n: Certification(n_base=n, k=(n + 1) // 2, residual={}, cone_failure_j=1),
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
        ],
    )
    def test_bad_entries_exit_2_naming_the_file(self, capsys, tmp_path, text, named):
        path = tmp_path / "m.txt"
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
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"jacobi": 0}
        jacobi = symfunc._cyclic_jacobi

        def counted(*args):
            counts["jacobi"] += 1
            return jacobi(*args)

        def refuse(*args):
            raise AssertionError("a command called the characteristic polynomial")

        monkeypatch.setattr(symfunc, "_cyclic_jacobi", counted)
        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("sigmak") and hasattr(
                module, "sigma_all_via_charpoly"
            ):
                monkeypatch.setattr(module, "sigma_all_via_charpoly", refuse)
        return counts

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cone_check(self, capsys, matrix_file, calls, k):
        path = matrix_file([[2.0, 0.5, 0.0], [0.5, 2.0, 1.0], [0.0, 1.0, -0.75]])
        assert run(["cone-check", "--matrix-file", path, "-k", str(k)]) in (0, 1)
        assert calls["jacobi"] == 1

    def test_phase_check(self, capsys, matrix_file, calls):
        path = matrix_file([[2.0, 0.5, 0.0], [0.5, 2.0, 1.0], [0.0, 1.0, -0.75]])
        assert run(["phase-check", "--matrix-file", path, "--expected", "0.5"]) == 1
        assert calls["jacobi"] == 1


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
    """A Jacobi that cannot converge or loses the trace is a numerical failure."""

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
        monkeypatch.setattr(symfunc, "JACOBI_MAX_SWEEPS", 0)
        assert run(["verify", "-n", "3", "--samples", "3", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "sigmak: numerical failure: sample 0 at " in err, err
        assert "double-double Jacobi did not converge in 0 sweeps" in err


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
             "4905d33857249060cead2ff6ee9e0658ffeb315ebf8ec8b9fe9d54d430ca2d09"),
            (["verify", "-n", "3", "-m", "1", "--samples", "100", "--seed", "5"], 0,
             "2f1783627bb01520387db27e177b9324e4c47c9d96fd1299b1dcd1a9990b2e49"),
            (["verify", "-n", "7", "--samples", "50", "--seed", "0"], 0,
             "91bb3eb5453f8a41024b4ddd83b912a82083b9bb2cb1f079c0aa23ce10989de8"),
            (["phase-check", "--matrix-file", "hessian.txt"], 0,
             "2f1f6c7234e5460da3bb8896397ef8ab216ef64d338b9d30407c130b5be0ff31"),
            (["phase-check", "--matrix-file", "hessian.txt", "--expected", "1.5707963267948966"], 0,
             "f46f309188260547198d709a9dd09ff82df87bd2c6f52d09a3e1cd714986e807"),
            (["phase-check", "--matrix-file", "matrix_14.txt"], 0,
             "0195378c2bf0f848417ffd119195faf5de1fd1fdc5dc6ab1c6a3ae0d9acb00ce"),
            (["cone-check", "-k", "7", "--matrix-file", "matrix_14.txt"], 1,
             "bd62927dcbc44fe361c424abf0162342448f6e28a426cf7caf275910db306f28"),
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
