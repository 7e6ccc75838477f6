import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chromsym
from chromsym import cli, csf as csf_module, graphs, identities, positivity
from chromsym.cli import _verify_kwargs, build_parser, main
from chromsym.identities import VERIFIERS, IdentityReport, iter_grid
from chromsym.symfunc import Basis, SymFunc


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

    @pytest.mark.parametrize("basis", ["e", "p"])
    def test_parses_the_spec_once(self, capsys, monkeypatch, basis):
        calls = []
        parse = graphs.parse_graph_spec

        def counted(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(graphs, "parse_graph_spec", counted)  # read by the command and by as_spec
        code, out, _ = run(capsys, "csf", "sun(3;1,2,1)", "--basis", basis, "--json")
        assert code == 0 and json.loads(out)["spec"] == "sun(3;1,2,1)"
        assert calls == ["sun(3;1,2,1)"]

    def test_degree_guard_override(self, capsys):
        code, _, err = run(capsys, "csf", "path(23)", "--basis", "s")
        assert code == 2
        assert err == "error: basis transitions guarded at degree 22, got 23\n"

    def test_degree_guard_builds_no_closed_form(self, capsys, monkeypatch):
        def refuse(*args):
            pytest.fail("closed form built before the degree guard")

        monkeypatch.setattr(csf_module, "_CLOSED_FORMS", dict.fromkeys(csf_module._CLOSED_FORMS, refuse))
        cases = [
            (("csf", "dumbbell(15,5,15)", "--basis", "s"), 35),
            (("csf", "sdumbbell(12,-1,12)", "--basis", "p"), 23),
            (("csf", "tadpole(20,20)", "--basis", "s"), 40),
            (("csf", "lollipop(30,10)", "--basis", "p"), 40),
            (("csf", "path(40)", "--basis", "s"), 40),
            (("csf", "complete(100000)", "--basis", "s"), 100000),
            (("positivity", "cycle(23)", "--basis", "s"), 23),
        ]
        for argv, n in cases:
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert err == f"error: basis transitions guarded at degree 22, got {n}\n"

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "csf", "sun(3;2,1,1)", "--json")
        _, second, _ = run(capsys, "csf", "sun(3;2,1,1)", "--json")
        assert first == second

    @pytest.mark.parametrize(
        "argv, n",
        [(("positivity", "edges[1000:]"), 1000), (("csf", "edges[3000:]"), 3000), (("csf", "edges[41:]"), 41)],
    )
    def test_vertex_guard_exit(self, capsys, argv, n):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: subset oracle guarded at 40 vertices, graph has {n}\n"


class TestChrompolyCommand:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "chrompoly", "cycle(3)")
        assert code == 0
        assert out == "chi[cycle(3)] = x^3 - 3*x^2 + 2*x  (subsets)\n"

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

    def test_vertex_guard_before_build(self, capsys, monkeypatch):
        def refuse(*args):
            pytest.fail("graph built before the scan guard")

        arity, rule, _ = graphs._FAMILY_TABLE["complete"]
        monkeypatch.setitem(graphs._FAMILY_TABLE, "complete", (arity, rule, refuse))
        code, out, err = run(capsys, "scan", "complete(2000)")
        assert (code, out) == (2, "")
        assert err == "error: full scans guarded at 14 vertices, graph has 2000\n"


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

    def test_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sun_coefficient", "--grid", "8", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "widget", "1,2")
        assert code == 2
        assert "unknown identity" in err

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "verify", "dumbbell_recursion")
        assert code == 2 and "error:" in err

    def test_params_with_grid_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "triple-deletion", "complete(3)", "--grid", "0")
        assert (code, out) == (2, "")
        assert err == "error: verify takes PARAMS or --grid CAP, not both\n"

    def test_bad_param_count(self, capsys):
        code, _, err = run(capsys, "verify", "dumbbell_recursion", "4,0")
        assert code == 2
        assert err == "error: expected 3 comma-separated values (m,l,n)\n"

    def test_bad_param_value(self, capsys):
        code, out, err = run(capsys, "verify", "dumbbell_recursion", "4,x,3")
        assert code == 2 and out == ""
        assert err == "error: l must be int, got 'x'\n"

    def test_bad_param_value_names_its_parameter(self, capsys):
        code, out, err = run(capsys, "verify", "sun-coefficient", "3,x")
        assert code == 2 and out == ""
        assert err == "error: k must be int, got 'x'\n"

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    def test_params_round_trip(self, name):
        kwargs = next(iter_grid(name, 8))
        text = ",".join(str(value) for value in kwargs.values())
        assert _verify_kwargs(name, text) == kwargs


def unequal_dumbbell_recursion(m: int, l: int, n: int):
    """A stand-in verifier whose two sides differ by e[m+l+n]."""
    lhs = SymFunc.single(Basis.E, (m + l + n,), 1)
    rhs = SymFunc.single(Basis.E, (m + l + n,), 2)
    return IdentityReport("dumbbell_recursion", {"m": m, "l": l, "n": n}, lhs, rhs, False, lhs - rhs)


class TestVerifyFailure:
    """The failure output of ``verify``, with ``dumbbell_recursion`` stubbed to disagree."""

    @pytest.fixture(autouse=True)
    def unequal(self, monkeypatch):
        monkeypatch.setitem(VERIFIERS, "dumbbell_recursion", unequal_dumbbell_recursion)

    @pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["plain", "strict"])
    def test_single_instance_text(self, capsys, strict):
        code, out, err = run(capsys, "verify", "dumbbell-recursion", "4,3,7", *strict)
        assert out == 'dumbbell_recursion {"m":4,"l":3,"n":7}: FAIL\ndifference: -e[14]\n'
        assert (code, err) == (len(strict), "")

    @pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["plain", "strict"])
    def test_single_instance_json(self, capsys, strict):
        code, out, err = run(capsys, "verify", "dumbbell-recursion", "4,3,7", "--json", *strict)
        assert json.loads(out) == unequal_dumbbell_recursion(4, 3, 7).to_json_obj()
        assert (code, err) == (len(strict), "")

    @pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["plain", "strict"])
    def test_grid_text(self, capsys, strict):
        code, out, err = run(capsys, "verify", "dumbbell-recursion", "--grid", "8", *strict)
        lines = out.splitlines()
        count = len(list(iter_grid("dumbbell_recursion", 8)))
        assert len(lines) == count + 1
        assert all(line.startswith("dumbbell_recursion {") and line.endswith(": FAIL") for line in lines[:-1])
        assert lines[-1] == f"dumbbell_recursion: {count} instances, FAILURES"
        assert (code, err) == (len(strict), "")

    @pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["plain", "strict"])
    def test_grid_json(self, capsys, strict):
        code, out, err = run(capsys, "verify", "dumbbell-recursion", "--grid", "8", "--json", *strict)
        obj = json.loads(out)
        assert (obj["identity"], obj["grid_cap"], obj["all_equal"]) == ("dumbbell_recursion", 8, False)
        assert obj["count"] == len(obj["reports"]) == len(list(iter_grid("dumbbell_recursion", 8)))
        assert not any(r["equal"] for r in obj["reports"])
        assert (code, err) == (len(strict), "")


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

    @pytest.mark.parametrize("spec", ["path(\u0663)", "path(\u00b2)"])
    def test_non_ascii_digit_exit_2(self, capsys, spec):
        assert run(capsys, "csf", spec) == (2, "", "error: expected an integer (at position 5)\n")

    @pytest.mark.parametrize(
        "argv",
        [("positivity", "sun(3;1,2,1)", "--basis", "s", "--json"), ("chrompoly", "sun(3;1,2,1)", "--json")],
        ids=["positivity", "chrompoly"],
    )
    def test_parses_the_spec_once(self, capsys, monkeypatch, argv):
        calls = []
        parse = graphs.parse_graph_spec
        monkeypatch.setattr(graphs, "parse_graph_spec", lambda text: calls.append(text) or parse(text))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and json.loads(out)
        assert calls == ["sun(3;1,2,1)"]

    @pytest.mark.parametrize("spec", ["tadpole(2,1)", "lollipop(2,1)", "lollipop(1,0)"])
    def test_one_argument_rule_for_every_command(self, capsys, spec):
        errors = set()
        for command in ("csf", "positivity", "chrompoly", "scan"):
            code, out, err = run(capsys, command, spec)
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            errors.add(err)
        assert len(errors) == 1

    def test_bad_dumbbell_same_error_everywhere(self, capsys):
        errors = set()
        for argv in (
            ("csf", "dumbbell(2,0,3)"),
            ("chrompoly", "dumbbell(2,0,3)"),
            ("scan", "dumbbell(2,0,3)"),
            ("verify", "dumbbell-recursion", "2,0,3"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            errors.add(err)
        assert errors == {"error: dumbbell bodies need at least three vertices each\n"}

    def test_scan_has_no_edge_guard(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--max-edges", "1", "path(3)"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["csf", "positivity"])
    def test_only_chrompoly_takes_max_edges(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "spider(2,1,1)", "--max-edges", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-edges" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, edges",
        [(("triple-deletion", "line(complete(6))"), 60), (("sun-spider-reduction", "20,5"), 33)],
    )
    def test_verify_edge_guard_exit_2(self, capsys, argv, edges):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: subset oracle guarded at 26 edges, graph has {edges}\n"

    def test_refused_grid_instance_is_named(self, capsys):
        code, out, err = run(capsys, "verify", "dumbbell-recursion", "--grid", "26")
        assert code == 2 and out == ""
        assert err == (
            'error: dumbbell_recursion {"m":3,"l":20,"n":3}: subset oracle guarded at 26 edges, graph has 27\n'
        )

    @pytest.mark.parametrize(
        "argv, degree",
        [
            (("csf", "spider(8,8,7)", "--basis", "s"), 24),
            (("csf", "sun(3;7,7,6)", "--basis", "p"), 23),
            (("positivity", "spider(8,8,7)", "--basis", "s"), 24),
        ],
    )
    def test_degree_guard_before_csf(self, capsys, monkeypatch, argv, degree):
        def refuse(*args):
            pytest.fail("compute_csf ran before the degree guard")

        monkeypatch.setattr(csf_module, "compute_csf", refuse)  # the csf command imports it on each call
        monkeypatch.setattr(positivity, "compute_csf", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: basis transitions guarded at degree 22, got {degree}\n"

    def test_sun_distinguishability_above_grid_cap_exit_2(self, capsys, monkeypatch):
        def refuse(*args):
            pytest.fail("a sun instance ran before the guard")

        monkeypatch.setattr(identities, "_oracle", refuse)
        code, out, err = run(capsys, "verify", "distinguishability", "sun,27")
        assert code == 2 and out == ""
        assert err == "error: sun grid guarded at size_cap 14; got 27\n"

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


def test_cli_import_loads_no_process_pool():
    # start-up cost of every chromsym process: no worker-pool machinery
    probe = (
        "import sys, chromsym.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    src = str(Path(chromsym.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def imported_modules(*args) -> set:
    """The modules a fresh ``python -S -X importtime ARGS`` imports, read from
    its import-time log; ``-S`` leaves out whatever ``site`` imports."""
    env = {**os.environ, "PYTHONPATH": str(Path(chromsym.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args], env=env, capture_output=True, text=True, check=True
    )
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}


def test_start_up_loads_only_what_the_command_runs():
    assert not {m for m in imported_modules("-c", "import chromsym") if m.startswith("chromsym.")}
    verifiers = {"chromsym.identities", "chromsym.positivity"}
    cli_import = imported_modules("-c", "import chromsym.cli")
    assert "chromsym.cli" in cli_import
    assert not cli_import & {"dataclasses", "inspect", *verifiers}
    assert not verifiers & imported_modules("-m", "chromsym.cli", "csf", "path(3)", "--json")
    engines = {"chromsym.csf", "chromsym.graphs", "chromsym.symfunc"}
    assert not engines & imported_modules("-m", "chromsym.cli", "partitions", "1")
    assert verifiers <= imported_modules("-m", "chromsym.cli", "verify", "dumbbell-recursion", "4,1,3")
