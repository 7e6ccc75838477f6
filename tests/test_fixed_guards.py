"""Every size guard is a fixed module constant: nothing can override one.

A dependency-free check: no public function of the library modules takes a
parameter named ``max_*``, and no ``chromsym`` subcommand has a ``--max-*``
option.  Workload sizes, such as ``iter_grid``'s ``vertex_cap`` or
``verify --grid``, are not guards and are not matched.
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


@pytest.mark.parametrize("spec, n", [("edges[100000000:]", 100000000), ("sun(3;100000,1,1)", 100005)])
def test_chrompoly_vertex_bound_fires_first(capsys, spec, n):
    """Both chromatic routes share the CSF engines' vertex bound, checked
    before the closed form or deletion-contraction starts."""
    start = time.perf_counter()
    assert main(["chrompoly", spec]) == 2
    assert time.perf_counter() - start < 2
    cap = partitions.DEFAULT_ENUMERATION_CAP
    assert capsys.readouterr().err == f"error: chromatic polynomial guarded at {cap} vertices, graph has {n}\n"
