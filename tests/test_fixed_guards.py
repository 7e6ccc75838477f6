"""Every size guard is a fixed module constant: nothing can override one.

A dependency-free check: no public function of the library modules takes a
parameter named ``max_*``, and no ``chromsym`` subcommand has a ``--max-*``
option.  Workload sizes, such as ``iter_grid``'s ``vertex_cap`` or
``verify --grid``, are not guards and are not matched.

Every route also checks its vertex bound on the |V| a spec's argument rule
returns, before any graph is built: with every family builder and the
``Graph`` constructor stubbed out, each route refuses an over-bound spec, and
specs far over the bounds are refused at once.
"""

import argparse
import inspect
import time
import types

import pytest

from chromsym import csf, graphs, identities, partitions, positivity, symfunc
from chromsym.cli import build_parser, main

MODULES = (partitions, graphs, csf, symfunc, positivity, identities)


def cap_parameters(module) -> list:
    out = []
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        out += [f"{name}({p})" for p in inspect.signature(fn).parameters if p.startswith("max_")]
    return out


def cap_options(parser) -> list:
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                out += [f"{command} {opt}" for opt in cap_options(sub)]
        else:
            out += [opt for opt in action.option_strings if opt.startswith("--max-")]
    return out


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_cap_parameters(module):
    assert cap_parameters(module) == []


def test_no_cap_options():
    assert cap_options(build_parser()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("csf", "path(6)", "--max-degree", "3"),
        ("chrompoly", "path(6)", "--max-edges", "3"),
        ("scan", "path(6)", "--max-vertices", "3"),
    ],
)
def test_old_cap_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err


def test_checkers_see_caps():
    def sample(g, max_edges=None):
        return g

    module = types.ModuleType("probe")
    module.sample = sample
    sample.__module__ = "probe"
    assert cap_parameters(module) == ["sample(max_edges)"]
    parser = argparse.ArgumentParser()
    parser.add_subparsers().add_parser("cmd").add_argument("--max-size")
    assert cap_options(parser) == ["cmd --max-size"]


#: line^5(K_5): 22,950 vertices and 757,350 edges; its argument has 22,950 edges
LINE5 = "line(" * 5 + "complete(5)" + ")" * 5


@pytest.mark.parametrize(
    "spec, n",
    [
        ("edges[100000000:]", 100000000),
        ("sun(3;100000,1,1)", 100005),
        ("sun(3;100000000,1,1)", 100000005),
        (LINE5, 22950),
    ],
)
def test_chrompoly_vertex_bound_fires_first(capsys, spec, n):
    """Both chromatic routes share the CSF engines' vertex bound, checked
    before the closed form or deletion-contraction starts."""
    start = time.perf_counter()
    assert main(["chrompoly", spec]) == 2
    assert time.perf_counter() - start < 2
    cap = partitions.DEFAULT_ENUMERATION_CAP
    assert capsys.readouterr().err == f"error: chromatic polynomial guarded at {cap} vertices, graph has {n}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "dumbbell-recursion", "3,100000000,3"), "subset oracle guarded at 40 vertices, graph has 100000006"),
        (("verify", "cdumbbell-recursion", "3,100000000,3"), "subset oracle guarded at 40 vertices, graph has 100000006"),
        (("verify", "sun-coefficient", "10000,10000"), "subset oracle guarded at 40 vertices, graph has 100010000"),
        (
            ("verify", "small-sun-coefficient", "100000000,100000000,100000000"),
            "subset oracle guarded at 40 vertices, graph has 300000003",
        ),
        (("verify", "triple-deletion", LINE5), "subset oracle guarded at 40 vertices, graph has 22950"),
        (("csf", LINE5), "subset oracle guarded at 40 vertices, graph has 22950"),
        (("scan", LINE5), "full scans guarded at 14 vertices, graph has 22950"),
        (("positivity", LINE5), "subset oracle guarded at 40 vertices, graph has 22950"),
        (("verify", "sun-coefficient", "10000000,1"), "subset oracle guarded at 40 vertices, graph has 20000000"),
        (("verify", "distinguishability", "dumbbell,41"), "dumbbell grid guarded at size_cap 14; got 41"),
        (("verify", "distinguishability", "cdumbbell,41"), "cdumbbell grid guarded at size_cap 14; got 41"),
        (("csf", "lollipop(1000000,0)"), "closed form guarded at 40 vertices, graph has 1000000"),
        (("csf", "cdumbbell(1000000,0,3)"), "closed form guarded at 40 vertices, graph has 1000003"),
        (("csf", "complete(1000000)"), "closed form guarded at 40 vertices, graph has 1000000"),
        (("csf", "cycle(1000000)"), "closed form guarded at 40 vertices, graph has 1000000"),
        (("verify", "distinguishability", "dumbbell,15"), "dumbbell grid guarded at size_cap 14; got 15"),
        (("verify", "distinguishability", "sun,15"), "sun grid guarded at size_cap 14; got 15"),
    ],
)
def test_vertex_bound_before_the_build(capsys, argv, message):
    start = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


#: line^7(K_5): 49,227,750 vertices; its level line^5(K_5) alone has 22,950
LINE7 = "line(" * 7 + "complete(5)" + ")" * 7
#: line^8 over a K_5 or a triangle with a pendant path, which keeps every
#: level's least degree at 1: line^8(lollipop(5,8)) holds line^8(K_5)
LOLLIPOP8 = "line(" * 8 + "lollipop(5,8)" + ")" * 8
SUN8 = "line(" * 8 + "sun(3;10,1,1)" + ")" * 8


@pytest.mark.parametrize(
    "argv, message",
    [
        (("csf", LINE7), "subset oracle guarded at 40 vertices, graph has 49227750"),
        (("csf", LINE7, "--basis", "s"), "basis transitions guarded at degree 22, got 49227750"),
        (("chrompoly", LINE7), "chromatic polynomial guarded at 40 vertices, graph has 49227750"),
        (("positivity", LINE7), "subset oracle guarded at 40 vertices, graph has 49227750"),
        (("scan", LINE7), "full scans guarded at 14 vertices, graph has 49227750"),
        (("verify", "triple-deletion", LINE7), "subset oracle guarded at 40 vertices, graph has 49227750"),
        (("csf", LOLLIPOP8), "subset oracle guarded at 40 vertices, graph has 846934704"),
        (("chrompoly", LOLLIPOP8), "chromatic polynomial guarded at 40 vertices, graph has 846934704"),
        (("scan", LOLLIPOP8), "full scans guarded at 14 vertices, graph has 846934704"),
        (("csf", SUN8), "subset oracle guarded at 40 vertices, graph has 211140"),
        (("positivity", SUN8), "subset oracle guarded at 40 vertices, graph has 211140"),
    ],
)
def test_nested_line_refused_before_any_large_level(capsys, monkeypatch, argv, message):
    """|V| of a ``line`` chain is bounded from the first level whose 2-core
    has more than 40 edges, so no level much past 40 vertices is built: the
    vertices of a level are the edges of the one below, at most 40 of them in
    its 2-core, and here one on a pendant path.  A chain whose levels are
    regular reads |V| itself, and an irregular one a lower bound over 40."""
    built, real = [], graphs.line_graph
    monkeypatch.setattr(graphs, "line_graph", lambda g: built.append(real(g)) or built[-1])
    start = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert max(g.n for g in built) <= 41


#: one row per route that refuses by size: the call, its arguments and its exact message
REFUSALS = [
    ("subsets-edges", csf.csf_subsets, (graphs.complete_graph(8),), "subset oracle guarded at 26 edges, graph has 28"),
    ("subsets-vertices", csf.csf_subsets, (graphs.Graph(41),), "subset oracle guarded at 40 vertices, graph has 41"),
    ("dc-edges", csf.csf_dc, (graphs.complete_graph(8),), "CSF deletion-contraction guarded at 26 edges, graph has 28"),
    ("dc-vertices", csf.csf_dc, (graphs.Graph(41),), "CSF deletion-contraction guarded at 40 vertices, graph has 41"),
    ("chromatic-dc", csf.chromatic_poly_dc, (graphs.Graph(41),), "chromatic polynomial guarded at 40 vertices, graph has 41"),
    ("cycle-closed", csf.csf_cycle_closed, (41,), "closed form guarded at 40 vertices, graph has 41"),
    ("compute-csf", csf.compute_csf, ("edges[41:]",), "subset oracle guarded at 40 vertices, graph has 41"),
    ("triple-deletion", identities.verify_triple_deletion, ("edges[41:]",), "subset oracle guarded at 40 vertices, graph has 41"),
    ("scan", positivity.missing_partition_scan, (graphs.path_graph(15),), "full scans guarded at 14 vertices, graph has 15"),
    (
        "partition-search",
        positivity.has_connected_partition,
        (graphs.Graph(41), [41]),
        "connected-partition search guarded at 40 vertices, graph has 41",
    ),
]


@pytest.mark.parametrize("fn, args, message", [pytest.param(*row[1:], id=row[0]) for row in REFUSALS])
def test_each_refusal_reads_as_pinned(fn, args, message):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "spec, message",
    [
        ("sun(3;13,13,13)", "closed form guarded at 40 vertices, graph has 42"),
        ("csun(3;13,13,13)", "closed form guarded at 40 vertices, graph has 42"),
        ("spider(13,13,14)", "closed form guarded at 40 vertices, graph has 41"),
        ("spider(7,7,7,7)", "subset oracle guarded at 26 edges, graph has 28"),
        ("spider(10,10,10,10,10)", "subset oracle guarded at 40 vertices, graph has 51"),
        ("sun(4;10,10,10,10)", "subset oracle guarded at 40 vertices, graph has 44"),
    ],
)
def test_spider_and_sun_refusals(capsys, monkeypatch, spec, message):
    """A three-leg spider or a 3-body sun over 40 vertices is refused by the
    closed-form guard before any path form is read; a spider of four or more
    legs or a larger sun has no closed form and is refused by the subset
    oracle's guards, as it was before the forms were routed."""
    for name in ("csf_path_closed", "_subset_counts"):
        monkeypatch.setattr(csf, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    assert main(["csf", spec]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_closed_spider_and_sun_pass_the_edge_cap(capsys):
    """The closed forms answer up to 40 vertices, whatever the edge count."""
    for spec in ("spider(9,9,9)", "sun(3;8,8,8)"):  # 27 edges each
        assert main(["csf", spec]) == 0
        assert capsys.readouterr().out.endswith("  (closed)\n")


def test_line_graph_of_a_sparse_graph(capsys):
    """The line graph walks the edges of G, not its vertices."""
    start = time.perf_counter()
    assert main(["csf", "line(edges[100000000:(0,1)])"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "X[line(edges[100000000:(0,1)])] = e[1]  (subsets)\n"


#: a spec with no closed CSF form, over every vertex bound (107 vertices)
OVER = "sun(4;100,1,1,1)"
#: verify parameters over the subset oracle's vertex bound, for each identity
#: but distinguishability, whose sun bound has its own test in test_cli.py
OVER_BOUND_PARAMS = {
    "triple_deletion": OVER,
    "sun_coefficient": "3,100",
    "small_sun_coefficient": "100,99,98",
    "sun_spider_reduction": "100,100",
    "dumbbell_recursion": "3,100,3",
    "dumbbell_tadpole_expansion": "3,100,3",
    "cdumbbell_recursion": "3,100,3",
    "cdumbbell_lollipop_expansion": "3,100,3",
    "chromatic_closed_forms": OVER,
}


@pytest.fixture
def no_builds(monkeypatch):
    """Every family builder, and the ``Graph`` constructor that builders
    called directly would reach, fails the test."""

    def refuse(*args, **kwargs):
        pytest.fail("a graph was built before its guard")

    for family, (arity, rule, _) in list(graphs._FAMILY_TABLE.items()):
        monkeypatch.setitem(graphs._FAMILY_TABLE, family, (arity, rule, refuse))
    monkeypatch.setattr(graphs.Graph, "__init__", refuse)


def test_scan_guards_a_spec_before_any_build(no_builds):
    with pytest.raises(ValueError, match="^full scans guarded at 14 vertices, graph has 2000$"):
        positivity.missing_partition_scan("complete(2000)")


def test_sweep_covers_every_identity():
    assert set(OVER_BOUND_PARAMS) == set(identities.VERIFIERS) - {"distinguishability"}


@pytest.mark.parametrize(
    "argv",
    [
        ("csf", OVER),
        ("csf", OVER, "--basis", "s"),
        ("positivity", OVER),
        ("positivity", OVER, "--basis", "s"),
        ("scan", OVER),
        ("chrompoly", OVER),
        *(("verify", name, params) for name, params in OVER_BOUND_PARAMS.items()),
    ],
)
def test_every_route_guards_before_any_build(capsys, no_builds, argv):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "guarded at" in err
