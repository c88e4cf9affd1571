import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigmak.cli import run


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
        st.sampled_from(["nan", "-inf", "1e400", "-1e400", "1e160", "-700", "700"]),
    )
    FIELD_NAMES = {
        "--x-radius": ("x_radius",),
        "--t-min": ("t_range", "|t|"),
        "--point": ("point", "|t|"),
    }

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        flag=st.sampled_from(["--x-radius", "--t-min", "--point"]),
        tokens=st.lists(TOKENS, min_size=3, max_size=3),
    )
    def test_random_tokens_exit_2_or_print_strict_json(self, capsys, flag, tokens):
        if flag == "--point":
            argv = ["eval", "-n", "3", "--point", ",".join(tokens)]
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
        # no exact gate past n = 9, and the scale-aware strict-positivity
        # thresholds exceed what float64 can certify at k = 6 box corners
        code, payload, _ = run_json(
            capsys, ["verify", "-n", "11", "--samples", "20", "--seed", "3"]
        )
        assert code == 1
        assert payload["exact_certified"] is None
        assert payload["checks_passed"] is False
        assert payload["report"]["max_abs_residual"] <= 1e-9


class TestVerifyExact:
    def test_n7(self, capsys):
        code, payload, _ = run_json(capsys, ["verify-exact", "-n", "7"])
        assert code == 0
        assert payload["ok"] is True
        assert payload["residual_terms"] == []

    def test_out_of_range_exits_2(self, capsys):
        assert run(["verify-exact", "-n", "11"]) == 2


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
