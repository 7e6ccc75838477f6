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
gives each identity's verifier, parameter grid and the grid's largest cap,
and ``run_grid`` sweeps an identity over that grid.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

from .csf import (
    CSF_EDGE_CAP,
    _guard,
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
from .graphs import Graph, GraphSpec, as_spec, parse_graph_spec
from .partitions import DEFAULT_GRID_VERTEX_CAP
from .positivity import triangle_sun_missing_type, uniform_sun_coefficient, uniform_sun_missing_type
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
    _guard("subset oracle", spec.check())
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


def verify_triple_deletion(target) -> IdentityReport:
    """X_G = X_{G minus e1} + X_{G minus e2} - X_{G minus e1,e2} for the
    lexicographically first triangle e1,e2,e3 of the graph, all four
    functions from the formula-free route ``_memo``, the subset expansion."""
    spec = as_spec(target)
    g = _checked(spec).build() if spec is not None else target
    edges = first_triangle(g)
    if edges is None:
        raise ValueError("graph has no triangle")
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
    lam = uniform_sun_missing_type(n, k)  # runs the sun rule; the type's weight is |V| = n(k + 1)
    _guard("subset oracle", lam.weight)
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
    """One-step recursion on the m-cycle:
    X_{D(m,l,n)} = X_{D(m-1,l+1,n)} + X_{T(n,m+l)} - X_{T(n,l+1)} X_{C(m-1)}; D(2,l+1,n) is T(n,l+3)."""
    lhs = _oracle(GraphSpec("dumbbell", (m, l, n)))
    shrunk = csf_dumbbell_closed(m - 1, l + 1, n) if m > 3 else csf_tadpole_closed(n, l + 3)
    rhs = shrunk + csf_tadpole_closed(n, m + l) - csf_tadpole_closed(n, l + 1) * csf_cycle_closed(m - 1)
    return _report("dumbbell_recursion", {"m": m, "l": l, "n": n}, lhs, rhs)


def verify_dumbbell_tadpole_expansion(m: int, l: int, n: int) -> IdentityReport:
    """Tadpole expansion, which the closed dumbbell form computes:
    X_{D(m,l,n)} = (m-1) X_{T(n,m+l)} - sum_{k=1}^{m-2} X_{T(n,l+k)} X_{C(m-k)}."""
    lhs = _oracle(GraphSpec("dumbbell", (m, l, n)))
    return _report("dumbbell_tadpole_expansion", {"m": m, "l": l, "n": n}, lhs, csf_dumbbell_closed(m, l, n))


def verify_cdumbbell_recursion(m: int, l: int, n: int) -> IdentityReport:
    """One-step recursion on the m-clique:
    X_{D̄(m,l,n)} = (m-1) X_{D̄(m-1,l+1,n)} - (m-2) X_{K(m-1)} X_{L(n,l+1)}; D̄(2,l+1,n) is L(n,l+3)."""
    lhs = _oracle(GraphSpec("cdumbbell", (m, l, n)))
    shrunk = csf_complete_dumbbell_closed(m - 1, l + 1, n) if m > 3 else csf_lollipop_closed(n, l + 3)
    rhs = (m - 1) * shrunk - (m - 2) * csf_complete_closed(m - 1) * csf_lollipop_closed(n, l + 1)
    return _report("cdumbbell_recursion", {"m": m, "l": l, "n": n}, lhs, rhs)


def verify_cdumbbell_lollipop_expansion(m: int, l: int, n: int) -> IdentityReport:
    """Lollipop expansion, which the closed complete dumbbell form computes:
    X_{D̄(m,l,n)} = (m-1)! X_{L(n,m+l)} - sum_k c_k X_{K(m-k)} X_{L(n,l+k)}, c_k = ``clique_weight(m, k)``."""
    lhs = _oracle(GraphSpec("cdumbbell", (m, l, n)))
    return _report("cdumbbell_lollipop_expansion", {"m": m, "l": l, "n": n}, lhs, csf_complete_dumbbell_closed(m, l, n))


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
    placed in ``params``.  A negative size_cap, or one over
    ``DEFAULT_GRID_VERTEX_CAP``, is refused before the first instance.
    """
    if family in ("dumbbell", "cdumbbell"):
        specs = (f"{family}({m},{l},{n})" for m, l, n in _canonical_dumbbell_triples(size_cap))
        instances = ((spec, spec, compute_csf(spec)[0]) for spec in specs)
    elif family == "sun":
        specs = map(parse_graph_spec, _sun_specs(size_cap))
        instances = ((spec.canonical(), str(spec), _oracle(spec)) for spec in specs)
    else:
        raise ValueError(f"unknown family {family!r}")
    if size_cap < 0:
        raise ValueError(f"{family} grid needs a nonnegative size_cap; got {size_cap}")
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

#: the chromatic grid's largest cap, 12,105 rows; its sun rows grow without bound
CHROMATIC_GRID_CAP = 20

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
    # The dumbbell grid's triples whose C(m,2) + C(n,2) + l + 1 edges pass the
    # CSF engines' guard ``CSF_EDGE_CAP``, in its order; each loop ends once
    # the count passes it, so no cap walks further.
    for m in range(3, cap + 1):
        if comb(m, 2) + 3 > CSF_EDGE_CAP:  # no n >= 3 fits
            break
        for n in range(3, cap + 1):
            room = CSF_EDGE_CAP - comb(m, 2) - comb(n, 2)  # edges left for the handle's l + 1
            if room < 0:
                break
            for l in range(-1, min(cap - m - n, room - 1) + 1):
                yield {"m": m, "l": l, "n": n}


def _grid_chromatic(cap):
    for spec in _sun_specs(cap):
        yield {"target": spec}
    for family in ("dumbbell", "cdumbbell", "sdumbbell"):
        for m, l, n in _canonical_dumbbell_triples(cap):
            yield {"target": f"{family}({m},{l},{n})"}


def _grid_distinguishability(cap):
    yield {"family": "dumbbell", "size_cap": min(cap, 11)}
    yield {"family": "cdumbbell", "size_cap": min(cap, 10)}
    yield {"family": "sun", "size_cap": min(cap, 10)}


#: identity name -> (verifier, parameter grid, largest cap or None); a sun has |E| = |V|, a dumbbell |V| + 1
_IDENTITIES = {
    "triple_deletion": (verify_triple_deletion, _grid_triple_deletion, None),
    "sun_coefficient": (verify_sun_coefficient, _grid_sun_coefficient, CSF_EDGE_CAP),
    "small_sun_coefficient": (verify_small_sun_coefficient, _grid_small_sun_coefficient, CSF_EDGE_CAP),
    "sun_spider_reduction": (verify_sun_spider_reduction, _grid_sun_spider_reduction, CSF_EDGE_CAP),
    "dumbbell_recursion": (verify_dumbbell_recursion, _grid_dumbbell, CSF_EDGE_CAP - 1),
    "dumbbell_tadpole_expansion": (verify_dumbbell_tadpole_expansion, _grid_dumbbell, CSF_EDGE_CAP - 1),
    "cdumbbell_recursion": (verify_cdumbbell_recursion, _grid_cdumbbell, None),
    "cdumbbell_lollipop_expansion": (verify_cdumbbell_lollipop_expansion, _grid_cdumbbell, None),
    "chromatic_closed_forms": (verify_chromatic_closed_forms, _grid_chromatic, CHROMATIC_GRID_CAP),
    "distinguishability": (verify_distinguishability, _grid_distinguishability, None),
}
VERIFIERS = {name: verifier for name, (verifier, *_) in _IDENTITIES.items()}


def iter_grid(name: str, vertex_cap: int = DEFAULT_GRID_VERTEX_CAP):
    """Parameter dictionaries of the identity's grid; a negative cap, or one over its bound, is refused first."""
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}")
    if vertex_cap < 0:
        raise ValueError(f"grid vertex cap must be nonnegative, got {vertex_cap}")
    _, grid, bound = _IDENTITIES[name]
    if bound is not None and vertex_cap > bound:
        raise ValueError(f"{name} grid guarded at cap {bound}; got {vertex_cap}")
    return grid(vertex_cap)


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
