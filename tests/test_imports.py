"""Every name a ``chromsym`` module imports is used in that module.

A dependency-free stand-in for a linter's unused-import rule: each module is
parsed with ``ast`` and every name bound by an ``import`` must be read
somewhere in the module.  ``__init__.py`` is skipped, since its imports are
the package's re-exports, and so are ``from __future__`` imports.  Those
re-exports are checked against ``__all__`` instead.
"""

import ast
from pathlib import Path

import pytest

import chromsym

SRC = Path(__file__).resolve().parent.parent / "src" / "chromsym"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_used_names():
    source = "from __future__ import annotations\nimport os\nfrom x import a, b as c\nprint(a, os.sep)\n"
    assert unused_imports(source) == ["c (line 3)"]


def test_package_exports_exactly_its_imports():
    """``__all__`` is sorted, has no duplicates, and names what ``__init__.py`` imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    exported = chromsym.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert set(exported) == set(imported)
