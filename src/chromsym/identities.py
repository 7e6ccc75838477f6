"""Exact verification of the recursion and expansion identities.

Every ``verify_*`` operation computes both sides of one identity with
independent engines — the left side by the formula-free route
``compute_csf(g)`` on the built graph (the edge-subset expansion), the right
side from closed family forms — and returns an :class:`IdentityReport`
carrying the exact difference.  ``_oracle`` takes a spec, refuses it above the
subset expansion's vertex bound before building and above ``CSF_EDGE_CAP``
edges after, and builds its ``GraphSpec.canonical()`` representative, so
``_memo``, the only memo of CSF results, is keyed per isomorphism class: the
mirror dumbbells D(m,l,n) and D(n,l,m), or suns whose rays differ by a
rotation or reflection, run the subset expansion once.  ``_IDENTITIES``
pairs each identity's verifier with its parameter grid, and ``run_grid``
sweeps an identity over that grid.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .csf import (
    DEFAULT_CHROMPOLY_EDGE_CAP,
    _eliminate,
    _vertex_guard,
    chromatic_poly_closed,
    chromatic_poly_dc,
    compute_csf,
    csf_complete_closed,
    csf_complete_dumbbell_closed,
    csf_cycle_closed,
    csf_dumbbell_closed,
    csf_lollipop_closed,
    csf_path_closed,
    csf_tadpole_closed,
)
from .graphs import Graph, GraphSpec, as_spec, dumbbell_graph, parse_graph_spec
from .partitions import DEFAULT_GRID_VERTEX_CAP
from .positivity import _check_uniform_sun, triangle_sun_missing_type, uniform_sun_coefficient, uniform_sun_missing_type
from .symfunc import Basis, SymFunc


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Graph):
        return {"vertices": value.n, "edges": [list(e) for e in value.edge_list]}
    if isinstance(value, GraphSpec):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class IdentityReport(namedtuple("IdentityReport", "name params lhs rhs equal difference")):
    """Two sides of one identity and their exact difference.

    For the grid-level distinguishability claim there is no equation;
    ``lhs``/``rhs``/``difference`` stay None and ``params`` carries any
    counterexample found.
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:
        def side(x):
            return None if x is None else x.to_json_obj()

        return {
            "name": self.name,
            "params": _jsonable(self.params),
            "equal": self.equal,
            "lhs": side(self.lhs),
            "rhs": side(self.rhs),
            "difference": side(self.difference),
        }


def _report(name: str, params: dict, lhs, rhs) -> IdentityReport:
    return IdentityReport(name, params, lhs, rhs, lhs == rhs, lhs - rhs)


@lru_cache(maxsize=1024)
def _memo(g: Graph) -> SymFunc:
    """The CSF of a built graph, never from a closed form, cached per graph."""
    return compute_csf(g)[0]


def _checked(spec: GraphSpec) -> GraphSpec:
    """The spec, once its arguments pass and it is within the subset oracle's vertex bound."""
    _vertex_guard("subset oracle", spec.check())
    return spec


def _oracle(spec: GraphSpec) -> SymFunc:
    """The CSF of the spec's graph by the subset expansion, once per isomorphism class.

    A checked spec is built as ``spec.canonical()``, so every spec of one
    class reaches ``_memo`` with the same graph: the CSF is an isomorphism
    invariant, and the class runs the DP and p -> e once.
    """
    return _memo(_checked(spec).canonical().build())


def first_triangle(g: Graph):
    """The lexicographically first triangle of g as three edges, or None."""
    adj = g.adjacency()
    for u in range(g.n):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u]:
                if w > v and w in adj[v]:
                    return ((u, v), (u, w), (v, w))
    return None


def verify_triple_deletion(target, e1=None, e2=None, e3=None) -> IdentityReport:
    """X_G = X_{G minus e1} + X_{G minus e2} - X_{G minus e1,e2} for a triangle e1,e2,e3.

    All four functions come from the formula-free route ``_memo``, the
    subset expansion.  When no edges are given, the lexicographically first
    triangle of the graph is used.
    """
    if (e1, e2, e3).count(None) not in (0, 3):
        raise ValueError("give all three edges or none")
    spec = as_spec(target)
    g = _checked(spec).build() if spec is not None else target
    if e1 is None:
        tri = first_triangle(g)
        if tri is None:
            raise ValueError("graph has no triangle")
        e1, e2, e3 = tri
    edges = tuple(tuple(sorted(e)) for e in (e1, e2, e3))
    if len(set(edges)) != 3 or any(e not in g.edges for e in edges):
        raise ValueError("edges must be three distinct edges of the graph")
    if len({v for e in edges for v in e}) != 3:
        raise ValueError("edges do not form a triangle")
    e1, e2, _ = edges

    def minus(*gone):
        return Graph(g.n, [e for e in g.edge_list if e not in gone])

    lhs = _memo(g)
    rhs = _memo(minus(e1)) + _memo(minus(e2)) - _memo(minus(e1, e2))
    params = {"target": spec if spec is not None else g, "triangle": list(edges)}
    return _report("triple_deletion", params, lhs, rhs)


def verify_sun_coefficient(n: int, k: int) -> IdentityReport:
    """The predicted negative e-coefficient of the sun with n equal rays of length k.

    Compares the oracle coefficient at ``uniform_sun_missing_type(n, k)``
    against ``uniform_sun_coefficient(n, k)``.
    """
    _vertex_guard("subset oracle", _check_uniform_sun(n, k))
    lam = uniform_sun_missing_type(n, k)
    expected = uniform_sun_coefficient(n, k)
    got = _oracle(GraphSpec("sun", (n, (k,) * n))).coefficient(lam)
    lhs = SymFunc.single(Basis.E, lam, got)
    rhs = SymFunc.single(Basis.E, lam, expected)
    return _report("sun_coefficient", {"n": n, "k": k, "type": lam}, lhs, rhs)


def verify_small_sun_coefficient(a: int, b: int, c: int) -> IdentityReport:
    """The predicted coefficient at (b+c+1, a+2) for the three-ray sun S(3; a, b, c).

    Requires a = max and a < b + c (the inputs are sorted internally).  The
    expected value is -(a+b+c+3) when b + c = a + 1 (the two parts of the
    type coincide) and -2(a+b+c+3) otherwise.
    """
    a, b, c = sorted((a, b, c), reverse=True)
    lam = triangle_sun_missing_type(a, b, c)
    if lam is None:
        raise ValueError("need the longest ray shorter than the other two combined")
    total = a + b + c + 3
    expected = -total if b + c == a + 1 else -2 * total
    got = _oracle(GraphSpec("sun", (3, (a, b, c)))).coefficient(lam)
    lhs = SymFunc.single(Basis.E, lam, got)
    rhs = SymFunc.single(Basis.E, lam, expected)
    return _report("small_sun_coefficient", {"a": a, "b": b, "c": c, "type": lam}, lhs, rhs)


def verify_sun_spider_reduction(a: int, b: int) -> IdentityReport:
    """X_{S(3;a,b,b)} = 2 X_{spider(a+1,b+1,b)} - X_{P_{2b+2}} X_{P_{a+1}}.

    Both graph functions come from the formula-free route ``_oracle``, the
    subset expansion; the path product from the closed path form.
    """
    lhs = _oracle(GraphSpec("sun", (3, (a, b, b))))
    rhs = 2 * _oracle(GraphSpec("spider", (a + 1, b + 1, b))) - csf_path_closed(2 * b + 2) * csf_path_closed(a + 1)
    return _report("sun_spider_reduction", {"a": a, "b": b}, lhs, rhs)


def verify_dumbbell_recursion(m: int, l: int, n: int) -> IdentityReport:
    """One-step recursion shrinking the m-cycle of the two-cycle dumbbell.

    X_{D(m,l,n)} = X_{D(m-1,l+1,n)} + X_{T(n,m+l)} - X_{T(n,l+1)} X_{C(m-1)}.
    The degenerate D(2,l+1,n) on the right of the m = 3 case is the tadpole
    T(n, l+3).  The left side is the oracle; every right-side term is a
    closed form.
    """
    lhs = _oracle(GraphSpec("dumbbell", (m, l, n)))
    shrunk = csf_dumbbell_closed(m - 1, l + 1, n) if m > 3 else csf_tadpole_closed(n, l + 3)
    rhs = shrunk + csf_tadpole_closed(n, m + l) - csf_tadpole_closed(n, l + 1) * csf_cycle_closed(m - 1)
    return _report("dumbbell_recursion", {"m": m, "l": l, "n": n}, lhs, rhs)


def verify_dumbbell_tadpole_expansion(m: int, l: int, n: int) -> IdentityReport:
    """X_{D(m,l,n)} = (m-1) X_{T(n,m+l)} - sum_{k=1}^{m-2} X_{T(n,l+k)} X_{C(m-k)}."""
    lhs = _oracle(GraphSpec("dumbbell", (m, l, n)))
    rhs = _eliminate("cycle", m, lambda k: csf_tadpole_closed(n, l + k))
    return _report("dumbbell_tadpole_expansion", {"m": m, "l": l, "n": n}, lhs, rhs)


def verify_dumbbell_full_expansion(m: int, l: int, n: int) -> IdentityReport:
    """Oracle CSF of D(m,l,n) against its closed path/cycle expansion."""
    lhs = _oracle(GraphSpec("dumbbell", (m, l, n)))
    rhs = csf_dumbbell_closed(m, l, n)
    return _report("dumbbell_full_expansion", {"m": m, "l": l, "n": n}, lhs, rhs)


def verify_cdumbbell_recursion(m: int, l: int, n: int) -> IdentityReport:
    """X_{D̄(m,l,n)} = (m-1) X_{D̄(m-1,l+1,n)} - (m-2) X_{K(m-1)} X_{L(n,l+1)}.

    The degenerate D̄(2,l+1,n) on the right of the m = 3 case is the lollipop
    L(n, l+3).
    """
    lhs = _oracle(GraphSpec("cdumbbell", (m, l, n)))
    shrunk = csf_complete_dumbbell_closed(m - 1, l + 1, n) if m > 3 else csf_lollipop_closed(n, l + 3)
    rhs = (m - 1) * shrunk - (m - 2) * csf_complete_closed(m - 1) * csf_lollipop_closed(n, l + 1)
    return _report("cdumbbell_recursion", {"m": m, "l": l, "n": n}, lhs, rhs)


def verify_cdumbbell_lollipop_expansion(m: int, l: int, n: int) -> IdentityReport:
    """X_{D̄(m,l,n)} = (m-1)! X_{L(n,m+l)} - sum_k c_k X_{K(m-k)} X_{L(n,l+k)}.

    The integer weight is c_k = (m-1)(m-2)...(m-k-1) / (m-k), which is
    ``clique_weight(m, k)``.
    """
    lhs = _oracle(GraphSpec("cdumbbell", (m, l, n)))
    rhs = _eliminate("complete", m, lambda k: csf_lollipop_closed(n, l + k))
    return _report("cdumbbell_lollipop_expansion", {"m": m, "l": l, "n": n}, lhs, rhs)


def verify_cdumbbell_full_expansion(m: int, l: int, n: int) -> IdentityReport:
    """Oracle CSF of D̄(m,l,n) against its closed path/complete expansion."""
    lhs = _oracle(GraphSpec("cdumbbell", (m, l, n)))
    rhs = csf_complete_dumbbell_closed(m, l, n)
    return _report("cdumbbell_full_expansion", {"m": m, "l": l, "n": n}, lhs, rhs)


def verify_chromatic_closed_forms(target) -> IdentityReport:
    """Closed chromatic polynomial of a family spec against deletion-contraction,
    compared coefficientwise."""
    spec = as_spec(target)
    rhs = chromatic_poly_closed(spec)
    lhs = chromatic_poly_dc(spec.build())
    return _report("chromatic_closed_forms", {"spec": spec}, lhs, rhs)


def _csf_key(f: SymFunc):
    """Hashable canonical form of a SymFunc, for collision maps."""
    return f.basis, f.degree, tuple(sorted(f.terms.items()))


def _canonical_dumbbell_triples(size_cap: int):
    """``(m, l, n)`` of the dumbbell grid with m <= n, in grid order."""
    return ((kw["m"], kw["l"], kw["n"]) for kw in _grid_dumbbell(size_cap) if kw["m"] <= kw["n"])


def _sun_specs(cap: int):
    """The spec string of every sun on at most ``cap`` vertices.

    The rays are the gaps between n - 1 cut points of 0..total; cuts in
    lexicographic order give the rays in lexicographic order.
    """
    for n in range(3, cap + 1):
        for total in range(n, cap - n + 1):
            for cuts in combinations(range(1, total), n - 1):
                rays = [b - a for a, b in zip((0,) + cuts, cuts + (total,))]
                yield f"sun({n};{','.join(map(str, rays))})"


def verify_distinguishability(family: str, size_cap: int) -> IdentityReport:
    """Grid claim that the family's CSF separates its parameters.

    For "dumbbell" and "cdumbbell": CSFs of canonical triples (m <= n,
    l >= -1) with at most ``size_cap`` vertices are pairwise distinct.  For
    "sun": suns with equal CSF are isomorphic, that is, have equal
    ``GraphSpec.canonical()``: rays equal up to rotation and reflection.
    ``equal`` records whether the claim holds; any counterexample pair is
    placed in ``params``.  A size_cap over ``DEFAULT_GRID_VERTEX_CAP`` is
    refused before the first instance.
    """
    if family in ("dumbbell", "cdumbbell"):
        specs = (f"{family}({m},{l},{n})" for m, l, n in _canonical_dumbbell_triples(size_cap))
        instances = ((spec, spec, compute_csf(spec)[0]) for spec in specs)
    elif family == "sun":
        specs = map(parse_graph_spec, _sun_specs(size_cap))
        instances = ((spec.canonical(), str(spec), _oracle(spec)) for spec in specs)
    else:
        raise ValueError(f"unknown family {family!r}")
    if size_cap > DEFAULT_GRID_VERTEX_CAP:
        raise ValueError(f"{family} grid guarded at size_cap {DEFAULT_GRID_VERTEX_CAP}; got {size_cap}")
    seen: dict = {}
    collision = None
    count = 0
    for key, spec, f in instances:
        fk = _csf_key(f)
        count += 1
        if fk in seen and seen[fk][0] != key and collision is None:
            collision = [seen[fk][1], spec]
        seen.setdefault(fk, (key, spec))
    params = {"family": family, "size_cap": size_cap, "instances": count, "collision": collision}
    return IdentityReport("distinguishability", params, None, None, collision is None, None)


# ------------------------------------------------------------------- grids


_TRIANGLE_GRID_SPECS = (
    "complete(3)",
    "complete(4)",
    "complete(5)",
    "sun(3;1,1,1)",
    "sun(3;2,1,1)",
    "sun(3;2,2,2)",
    "csun(4;1,1,1,1)",
    "csun(3;3,2,1)",
    "tadpole(3,3)",
    "lollipop(4,2)",
    "lollipop(5,0)",
    "dumbbell(3,1,3)",
    "dumbbell(3,0,4)",
    "dumbbell(3,-1,3)",
    "cdumbbell(3,1,3)",
    "cdumbbell(4,0,4)",
    "cdumbbell(3,-1,4)",
    "sdumbbell(4,1,3)",
    "sdumbbell(5,-1,4)",
)


def _grid_triple_deletion(cap):
    for spec in _TRIANGLE_GRID_SPECS:
        if parse_graph_spec(spec).check() <= cap:
            yield {"target": spec}


def _grid_sun_coefficient(cap):
    for n in range(3, cap // 2 + 1):
        for k in range(1, cap // n):
            if n * (k + 1) <= cap:
                yield {"n": n, "k": k}


def _grid_small_sun_coefficient(cap):
    for a in range(1, cap):
        for b in range(1, a + 1):
            for c in range(1, b + 1):
                if a < b + c and 3 + a + b + c <= cap:
                    yield {"a": a, "b": b, "c": c}


def _grid_sun_spider_reduction(cap):
    for a in range(1, cap):
        for b in range(1, cap):
            if 3 + a + 2 * b <= cap:
                yield {"a": a, "b": b}


def _grid_dumbbell(cap):
    for m in range(3, cap + 1):
        for n in range(3, cap + 1):
            for l in range(-1, cap - m - n + 1):
                yield {"m": m, "l": l, "n": n}


def _grid_cdumbbell(cap):
    # Complete dumbbells grow quadratically in m and n; the grid keeps those
    # of at most 26 edges.  The bound is the grid's own, so the grid does not
    # change when the CSF engines' guard does.
    for kw in _grid_dumbbell(cap):
        if len(dumbbell_graph(**kw, kind="complete").edges) <= 26:
            yield kw


def _grid_chromatic(cap):
    for spec in _sun_specs(cap):
        yield {"target": spec}
    for family in ("dumbbell", "cdumbbell", "sdumbbell"):
        for m, l, n in _canonical_dumbbell_triples(cap):
            spec = f"{family}({m},{l},{n})"
            if len(parse_graph_spec(spec).build().edges) <= DEFAULT_CHROMPOLY_EDGE_CAP:
                yield {"target": spec}


def _grid_distinguishability(cap):
    yield {"family": "dumbbell", "size_cap": min(cap, 11)}
    yield {"family": "cdumbbell", "size_cap": min(cap, 10)}
    yield {"family": "sun", "size_cap": min(cap, 10)}


#: identity name -> (verifier, parameter grid)
_IDENTITIES = {
    "triple_deletion": (verify_triple_deletion, _grid_triple_deletion),
    "sun_coefficient": (verify_sun_coefficient, _grid_sun_coefficient),
    "small_sun_coefficient": (verify_small_sun_coefficient, _grid_small_sun_coefficient),
    "sun_spider_reduction": (verify_sun_spider_reduction, _grid_sun_spider_reduction),
    "dumbbell_recursion": (verify_dumbbell_recursion, _grid_dumbbell),
    "dumbbell_tadpole_expansion": (verify_dumbbell_tadpole_expansion, _grid_dumbbell),
    "dumbbell_full_expansion": (verify_dumbbell_full_expansion, _grid_dumbbell),
    "cdumbbell_recursion": (verify_cdumbbell_recursion, _grid_cdumbbell),
    "cdumbbell_lollipop_expansion": (verify_cdumbbell_lollipop_expansion, _grid_cdumbbell),
    "cdumbbell_full_expansion": (verify_cdumbbell_full_expansion, _grid_cdumbbell),
    "chromatic_closed_forms": (verify_chromatic_closed_forms, _grid_chromatic),
    "distinguishability": (verify_distinguishability, _grid_distinguishability),
}
VERIFIERS = {name: verifier for name, (verifier, _) in _IDENTITIES.items()}


def iter_grid(name: str, vertex_cap: int = DEFAULT_GRID_VERTEX_CAP):
    """Parameter dictionaries of the identity's grid."""
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}")
    yield from _IDENTITIES[name][1](vertex_cap)


def run_grid(name: str, vertex_cap: int = DEFAULT_GRID_VERTEX_CAP) -> list:
    """Run one identity over its whole grid; returns the reports in grid order.
    An instance a guard refuses re-raises its ``ValueError`` prefixed with the
    identity's name and the instance's parameters."""
    reports = []
    for kw in iter_grid(name, vertex_cap):
        try:
            reports.append(VERIFIERS[name](**kw))
        except ValueError as exc:
            raise ValueError(f"{name} {json.dumps(kw, separators=(',', ':'))}: {exc}") from None
    return reports
