"""Every name a ``chromsym`` module imports is used in that module, and no
module imports a sibling's private name unless it is pinned here.

A dependency-free stand-in for a linter's unused-import rule: each module is
parsed with ``ast`` and every name bound by an ``import`` must be read
somewhere in the module.  ``__init__.py`` is skipped, since it imports its
exports lazily from a table, and so are ``from __future__`` imports.  That
table is checked against ``__all__`` and the modules instead.  The underscore names a
module takes from its siblings must equal its entry in ``PRIVATE_IMPORTS``,
so a new private import across modules shows up as an edit to that table,
and the memoized functions must equal ``MEMOS``, so a new or resized memo does
too.
Every module-level underscore name must be read somewhere in the package
outside its own definition, so a helper left behind by a refactor fails,
and every underscore name the docs mention must be defined in the package,
so a doc left behind by a refactor fails too.  Every public module-level
function or class must be read by the package or named by the benchmark in
``perfbench/``, or be pinned in ``LIBRARY``, and every public method or
property of a public class must be read as an attribute in the package
outside its own definition, or named by ``perfbench/``, or be pinned in
``LIBRARY_MEMBERS``, so code that only the tests call does not grow back in
the package.
"""

import ast
import importlib
from collections import Counter
import io
import re
import tokenize
from pathlib import Path

import pytest

import chromsym

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chromsym"
PERFBENCH = ROOT / "perfbench"
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


#: module -> the underscore names it imports from sibling modules
PRIVATE_IMPORTS = {
    "cli": ["_degree_guard"],
    "csf": ["_acc", "_check_sizes", "_count_keys", "_divided", "_newton"],
    "identities": ["_guard"],
    "positivity": ["_check_sizes", "_count_keys", "_degree_guard", "_guard"],
    "symfunc": ["_acc", "_count_keys"],
}


def private_imports(source: str) -> list:
    """Sorted underscore names bound by relative ``from`` imports."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_imports_across_modules_are_pinned():
    found = {path.stem: private_imports(path.read_text()) for path in MODULES}
    assert {stem: names for stem, names in found.items() if names} == PRIVATE_IMPORTS


def test_checker_sees_private_imports():
    source = "from .a import _x, y\nfrom b import _z\nfrom . import _w as w\n"
    assert private_imports(source) == ["_w", "_x"]


#: module -> {memoized function: its ``lru_cache`` maxsize}; a nested
#: function is named after its enclosing one
MEMOS = {
    "csf": {
        "_cycle_chromatic": None,
        "_cycle_keys": None,
        "_dc_block": 1024,
        "_falling": None,
        "_lollipop_keys": None,
        "_path_keys": None,
        "_subsets_block": 1024,
        "_tadpole_keys": None,
        "_tree": None,
        "_xm1_power": None,
    },
    "identities": {"_memo": 1024},
    "partitions": {"_count_keys": None, "_partition_list": None},
    "positivity": {"_scan_types": None},
    "symfunc": {
        "_elementary_in_s": None,
        "_jacobi_trudi_dual.minor": None,
        "_keyed": None,
        "_pieri": None,
        "_product": None,
    },
}


def _maxsize(decorator):
    """The maxsize a ``cache`` or ``lru_cache`` decorator gives, or ``False``
    for any other decorator; an ``lru_cache`` without one gives 128."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return None
    if name != "lru_cache":
        return False
    given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args if call else []
    if not given:
        return 128
    return given[0].value if isinstance(given[0], ast.Constant) else ast.unparse(given[0])


def memos(source: str) -> dict:
    """{function: maxsize} of every memoized function in ``source``, nested
    ones as ``outer.inner``."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                for decorator in child.decorator_list:
                    size = _maxsize(decorator)
                    if size is not False:
                        out[name] = size
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return out


def test_memo_set_is_pinned():
    """Adding, removing or resizing a memo shows up as an edit to ``MEMOS``."""
    found = {path.stem: memos(path.read_text()) for path in MODULES}
    assert {stem: names for stem, names in found.items() if names} == MEMOS


def test_checker_sees_memos():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.lru_cache(64)\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n"
        "def d():\n    @cache\n    def e(): pass\n    return e\n"
        "class K:\n    @staticmethod\n    @lru_cache(maxsize=SIZE)\n    def f(): pass\n"
        "@staticmethod\ndef g(): pass\n"
    )
    assert memos(source) == {"a": None, "b": 64, "c": 128, "d.e": None, "K.f": "SIZE"}


def refusal_holders(source: str) -> set:
    """Names of the functions whose code, not their docstrings, holds the text
    ``guarded at``; code outside any function counts as ``<module>``."""
    tree = ast.parse(source)
    docs = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }

    def holders(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and isinstance(child.value, str) and id(child) not in docs:
                if "guarded at" in child.value:
                    yield where
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from holders(child, child.name if named else where)

    return set(holders(tree, "<module>"))


def test_size_refusals_are_worded_in_one_place_per_kind():
    """The vertex and edge refusals are ``csf._guard``'s; the transition and
    grid refusals keep their own wording."""
    found = set().union(*(refusal_holders(path.read_text()) for path in MODULES))
    assert found == {"_guard", "_degree_guard", "verify_distinguishability", "iter_grid"}


def test_checker_sees_refusal_text():
    source = (
        '"""Routes guarded at a cap."""\n'
        'def f(n):\n    """guarded at n"""\n    raise ValueError(f"f guarded at {n}")  # guarded at\n'
        'class C:\n    def g(self):\n        return "g guarded at"\n'
        'X = "guarded at"\n'
    )
    assert refusal_holders(source) == {"f", "g", "<module>"}


def test_package_exports_exactly_its_imports():
    """``__all__`` is sorted, has no duplicates, and names the export table;
    each name is its module's object, ``import *`` binds every name, and an
    unknown name raises AttributeError."""
    table = [(module, name) for module, names in chromsym._EXPORTS.items() for name in names.split()]
    exported = chromsym.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported) == len(table)
    assert set(exported) == {name for _, name in table}
    for module, name in table:
        assert getattr(chromsym, name) is getattr(importlib.import_module(f"chromsym.{module}"), name)
    namespace = {}
    exec("from chromsym import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)
    with pytest.raises(AttributeError, match="no_such_name"):
        chromsym.no_such_name


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _read_names(stmt) -> set:
    names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return names | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}


def _unread(sources: dict):
    """(module, statement, name) of each module-level name that no other
    top-level statement of any module reads; a recursive helper's calls to
    itself do not count."""
    stmts = [(module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body]
    reads = [_read_names(stmt) for _, stmt in stmts]
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined_names(stmt):
            if not any(name in names for j, names in enumerate(reads) if j != i):
                yield module, stmt, name


def unread_private_names(sources: dict) -> list:
    """``module.name`` of each unread module-level ``_name`` (not dunder)."""
    return sorted(
        f"{module}.{name}"
        for module, _, name in _unread(sources)
        if name.startswith("_") and not name.startswith("__")
    )


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_checker_sees_unread_private_names():
    sources = {
        "a": "__all__ = []\n_X = 1\ndef _rec(n):\n    return _rec(n - 1)\ndef _used():\n    return _X\n",
        "b": "from .a import _used\nclass _C:\n    pass\nprint(_used())\n",
    }
    assert unread_private_names(sources) == ["a._rec", "b._C"]


#: public functions and classes that nothing in the package or the benchmark
#: reads, kept as library API: three of the paper's criteria, and the only
#: route that returns the blocks of a connected partition
LIBRARY = {
    "positivity.gcd_missing_type",
    "positivity.has_connected_partition",
    "positivity.spider_nonpositivity_criterion",
    "positivity.sun_matching_criterion",
}


def unread_public_names(sources: dict, named: set) -> list:
    """``module.name`` of each unread module-level public function or class
    that ``named`` does not hold."""
    return sorted(
        f"{module}.{name}"
        for module, stmt, name in _unread(sources)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not name.startswith("_") and name not in named
    )


def test_every_public_function_and_class_is_used():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    named = set().union(*(_read_names(ast.parse(path.read_text())) for path in PERFBENCH.glob("*.py")))
    assert unread_public_names(sources, named) == sorted(LIBRARY)


def test_checker_sees_unread_public_names():
    sources = {
        "a": "X = 1\n_h = 2\ndef f():\n    return g()\ndef g():\n    pass\n"
        "class K:\n    pass\ndef rec(n):\n    return rec(n)\n",
        "b": "from .a import K\nprint(K)\ndef kept():\n    pass\n",
    }
    assert unread_public_names(sources, {"kept"}) == ["a.f", "a.rec"]


#: public methods and properties of public classes, as ``module.Class.member``,
#: that nothing in the package or the benchmark reads, kept as library API
LIBRARY_MEMBERS = set()


def _attributes(node) -> Counter:
    return Counter(child.attr for child in ast.walk(node) if isinstance(child, ast.Attribute))


def unread_public_members(sources: dict, named: set) -> list:
    """``module.Class.member`` of each public method or property of a public
    module-level class whose name no attribute of ``sources`` reads outside
    the member's own definition, and that ``named`` does not hold.  Names
    are matched alone, whatever object they are read from."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum(map(_attributes, trees.values()), Counter())
    return sorted(
        f"{module}.{cls.name}.{member.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_")
        and member.name not in named and reads[member.name] == _attributes(member)[member.name]
    )


def test_every_public_member_is_used():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    named = set().union(*(_read_names(ast.parse(path.read_text())) for path in PERFBENCH.glob("*.py")))
    assert unread_public_members(sources, named) == sorted(LIBRARY_MEMBERS)


def test_checker_sees_unread_public_members():
    sources = {
        "a": "class K:\n    def used(self):\n        return self.size\n"
        "    def rec(self):\n        return self.rec()\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def _private(self):\n        pass\n"
        "    def kept(self):\n        pass\n"
        "class _Hidden:\n    def unread(self):\n        pass\n",
        "b": "from .a import K\nprint(K().used())\n",
    }
    assert unread_public_members(sources, {"kept"}) == ["a.K.rec"]


#: a quoted ``_name`` or `_name`, after an optional ``module.``; a trailing
#: ``*`` makes the name a prefix
_DOC_NAME = re.compile(r"`(?:\w+\.)*(_\w+)(\*?)")


def _documented_names(source: str) -> set:
    """(name, star) of each ``_name`` in the docstrings and comments of ``source``."""
    tree = ast.parse(source)
    texts = [
        ast.get_docstring(node, clean=False)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    texts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline) if tok.type == tokenize.COMMENT]
    return {match.groups() for text in texts if text for match in _DOC_NAME.finditer(text)}


def _bound_names(source: str) -> set:
    """Every def, class, assigned name, attribute and argument of ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def stale_doc_names(sources: dict, readme: str) -> list:
    """``where: name`` of each underscore name (not dunder) that a docstring or
    comment of ``sources``, or ``readme``, mentions and no module defines."""
    defined = set().union(*map(_bound_names, sources.values()))
    mentioned = {(module, *found) for module, source in sources.items() for found in _documented_names(source)}
    mentioned |= {("README.md", *match.groups()) for match in _DOC_NAME.finditer(readme)}
    return sorted(
        f"{where}: {name}{star}"
        for where, name, star in mentioned
        if not (name.startswith("__") and name.endswith("__"))
        and not (any(d.startswith(name) for d in defined) if star else name in defined)
    )


def test_docs_name_only_defined_private_names():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert stale_doc_names(sources, (ROOT / "README.md").read_text()) == []


def test_checker_sees_stale_doc_names():
    sources = {
        "a": '"""Uses ``_gone(x)``, ``b._kept`` and ``__all__``."""\ndef _kept(_arg):\n    return _arg  # not ``_arg2``\n',
        "b": '"""Every ``_kep*`` and ``_lost_*`` helper."""\nclass C:\n    """``_attr``"""\nC()._attr = 1\n',
    }
    readme = "`_kept`, `a._arg`, `_absent`, _unquoted"
    assert stale_doc_names(sources, readme) == ["README.md: _absent", "a: _arg2", "a: _gone", "b: _lost_*"]
