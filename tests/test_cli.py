import json

import pytest

from chromsym.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCsfCommand:
    def test_human(self, capsys):
        code, out, err = run(capsys, "csf", "cycle(3)")
        assert code == 0 and err == ""
        assert out == "X[cycle(3)] = 6*e[3]  (closed)\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "csf", "cycle(3)", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["basis"] == "e"
        assert obj["degree"] == 3
        assert obj["spec"] == "cycle(3)"
        assert obj["engine"] == "closed"
        assert obj["terms"] == [{"partition": [3], "num": "6", "den": "1"}]

    def test_basis_p(self, capsys):
        code, out, _ = run(capsys, "csf", "path(2)", "--basis", "p", "--json")
        obj = json.loads(out)
        assert obj["basis"] == "p"
        assert obj["terms"] == [
            {"partition": [2], "num": "-1", "den": "1"},
            {"partition": [1, 1], "num": "1", "den": "1"},
        ]

    def test_basis_s(self, capsys):
        code, out, _ = run(capsys, "csf", "path(3)", "--basis", "s", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["basis"] == "s"

    def test_degree_guard_override(self, capsys):
        code, _, err = run(capsys, "csf", "path(6)", "--basis", "s", "--max-degree", "3")
        assert code == 2
        assert err.startswith("error:")

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "csf", "sun(3;2,1,1)", "--json")
        _, second, _ = run(capsys, "csf", "sun(3;2,1,1)", "--json")
        assert first == second


class TestChrompolyCommand:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "chrompoly", "cycle(3)")
        assert code == 0
        assert out == "chi[cycle(3)] = x^3 - 3*x^2 + 2*x  (dc)\n"

    def test_family_uses_closed_form(self, capsys):
        _, out, _ = run(capsys, "chrompoly", "dumbbell(3,0,3)", "--json")
        obj = json.loads(out)
        assert obj["engine"] == "closed"
        assert obj["coeffs"][0] == 0

    def test_at(self, capsys):
        code, out, _ = run(capsys, "chrompoly", "dumbbell(3,0,3)", "--at", "3")
        assert (code, out) == (0, "24\n")
        _, out, _ = run(capsys, "chrompoly", "cdumbbell(4,1,3)", "--at", "2", "--json")
        obj = json.loads(out)
        assert obj["at"] == 2 and obj["value"] == 0

    def test_guard_exit(self, capsys):
        code, _, err = run(capsys, "chrompoly", "complete(10)")
        assert code == 2 and "error:" in err


class TestPositivityCommand:
    def test_negative_verdict_human(self, capsys):
        code, out, _ = run(capsys, "positivity", "sun(3;1,1,1)")
        assert code == 0
        assert "not e-positive" in out
        assert "witness [3,3] -> -6" in out

    def test_positive_verdict(self, capsys):
        code, out, _ = run(capsys, "positivity", "path(5)")
        assert code == 0
        assert "e-positive" in out and "not" not in out

    def test_json_schema(self, capsys):
        _, out, _ = run(capsys, "positivity", "sun(3;1,1,1)", "--json")
        obj = json.loads(out)
        assert set(obj) == {"positive", "basis", "witness", "engine"}
        assert obj["witness"]["partition"] == [3, 3]

    def test_strict_exit(self, capsys):
        code, _, _ = run(capsys, "positivity", "sun(3;1,1,1)", "--strict")
        assert code == 1
        code, _, _ = run(capsys, "positivity", "path(5)", "--strict")
        assert code == 0

    def test_s_basis(self, capsys):
        code, out, _ = run(capsys, "positivity", "sun(3;1,1,1)", "--basis", "s", "--strict")
        assert code == 0
        assert "s-positive" in out


class TestScanCommand:
    def test_missing_types_listed(self, capsys):
        code, out, _ = run(capsys, "scan", "sun(3;1,1,1)")
        assert code == 0
        assert out == "[3,3]\n"

    def test_none(self, capsys):
        code, out, _ = run(capsys, "scan", "path(6)")
        assert (code, out) == (0, "none\n")

    def test_json(self, capsys):
        _, out, _ = run(capsys, "scan", "spider(1,1,1,1)", "--json")
        obj = json.loads(out)
        assert obj == {"spec": "spider(1,1,1,1)", "missing": [[3, 2], [2, 2, 1]]}

    def test_strict_exit(self, capsys):
        assert run(capsys, "scan", "sun(3;1,1,1)", "--strict")[0] == 1
        assert run(capsys, "scan", "path(6)", "--strict")[0] == 0

    def test_vertex_guard_override(self, capsys):
        code, _, err = run(capsys, "scan", "path(15)")
        assert code == 2 and "error:" in err
        code, out, _ = run(capsys, "scan", "path(15)", "--max-vertices", "15")
        assert (code, out) == (0, "none\n")


class TestPartitionsCommand:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "partitions", "4")
        assert code == 0
        assert out.splitlines() == ["[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]

    def test_json(self, capsys):
        _, out, _ = run(capsys, "partitions", "3", "--json")
        assert json.loads(out) == [[3], [2, 1], [1, 1, 1]]

    def test_guard(self, capsys):
        code, _, err = run(capsys, "partitions", "90")
        assert code == 2 and "error:" in err


class TestVerifyCommand:
    def test_single_instance_human(self, capsys):
        code, out, _ = run(capsys, "verify", "dumbbell-recursion", "4,0,3")
        assert code == 0
        assert out == 'dumbbell_recursion {"m":4,"l":0,"n":3}: ok\n'

    def test_single_instance_json(self, capsys):
        _, out, _ = run(capsys, "verify", "sun_coefficient", "3,1", "--json")
        obj = json.loads(out)
        assert obj["equal"] is True
        assert obj["params"]["n"] == 3 and obj["params"]["k"] == 1

    def test_spec_parameter_identities(self, capsys):
        code, out, _ = run(capsys, "verify", "triple-deletion", "sun(3;1,1,1)")
        assert code == 0 and ": ok" in out
        code, out, _ = run(capsys, "verify", "chromatic-closed-forms", "sdumbbell(3,1,3)")
        assert code == 0 and ": ok" in out

    def test_distinguishability_params(self, capsys):
        code, out, _ = run(capsys, "verify", "distinguishability", "dumbbell,8")
        assert code == 0 and ": ok" in out

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "dumbbell_recursion", "--grid", "9")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("dumbbell_recursion:")
        assert "all equal" in lines[-1]
        assert all(": ok" in line for line in lines[:-1])

    def test_grid_json(self, capsys):
        _, out, _ = run(capsys, "verify", "sun_spider_reduction", "--grid", "9", "--json")
        obj = json.loads(out)
        assert obj["all_equal"] is True
        assert obj["count"] == len(obj["reports"]) > 0

    def test_grid_jobs(self, capsys):
        _, serial, _ = run(capsys, "verify", "sun_coefficient", "--grid", "8", "--json")
        _, parallel, _ = run(capsys, "verify", "sun_coefficient", "--grid", "8", "--jobs", "2", "--json")
        assert serial == parallel

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "widget", "1,2")
        assert code == 2
        assert "unknown identity" in err

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "verify", "dumbbell_recursion")
        assert code == 2 and "error:" in err

    def test_bad_param_count(self, capsys):
        code, _, err = run(capsys, "verify", "dumbbell_recursion", "4,0")
        assert code == 2 and "error:" in err


class TestErrorsAndParser:
    def test_bad_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "csf", "wedge(4)")
        assert code == 2 and err.startswith("error:")

    def test_semantic_spec_error_exit_2(self, capsys):
        code, _, err = run(capsys, "csf", "sun(3;1,1)")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("spec", ["sun(3;1,1)", "sun(2;1,1)", "sun(3;0,1,1)", "sun(3;-2,1,1)"])
    def test_bad_sun_chrompoly_exit_2(self, capsys, spec):
        code, out, err = run(capsys, "chrompoly", spec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deeply_nested_spec_exit_2(self, capsys):
        spec = "line(" * 1200 + "path(3)" + ")" * 1200
        code, out, err = run(capsys, "csf", spec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["unknown-command"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_builds_and_lists_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("csf", "chrompoly", "positivity", "scan", "partitions", "verify"):
            assert cmd in text
