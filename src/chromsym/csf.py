"""Chromatic symmetric functions and chromatic polynomials, by three routes.

Engines:

* ``csf_subsets`` -- the edge-subset expansion
  :math:`X_G = \\sum_{S \\subseteq E} (-1)^{|S|} p_{\\lambda(S)}`,
  evaluated by a depth-first walk over subsets sharing a single undoable
  union-find.  This is the brute-force oracle every other route is checked
  against.
* ``csf_dc`` -- deletion-contraction on vertex-weighted multigraphs
  (:math:`X_G = X_{G\\setminus e} - X_{G/e}`, contraction adds endpoint
  weights).  States are keyed by their contracted-block structure and
  memoized, which collapses the recursion on dense bodies.
* closed forms for paths, cycles, complete graphs, tadpoles, lollipops and the
  dumbbell families, accepted only because the test suite pins them to the
  subset oracle on overlapping grids.

Both engines return power-sum expansions with integer coefficients; closed
forms are elementary-basis native.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .graphs import Graph, GraphSpec, WeightedMultigraph, _check_sun_args, parse_graph_spec
from .partitions import Partition, partitions_of
from .symfunc import Basis, SymFunc, p_to_e

#: default ceiling on |E| for the exponential subset oracle
DEFAULT_SUBSET_EDGE_CAP = 26
#: default ceiling on |E| for chromatic-polynomial deletion-contraction
DEFAULT_CHROMPOLY_EDGE_CAP = 40
#: auto engine switches from the subset oracle to deletion-contraction above this
AUTO_SUBSET_THRESHOLD = 18


def _multinomial(counts) -> int:
    total = sum(counts)
    out = factorial(total)
    for c in counts:
        out //= factorial(c)
    return out


# ------------------------------------------------------------- subset oracle


def _subset_counts(n, edges):
    """Signed counts {component-size tuple: sum of (-1)^|S|} over subsets of ``edges``.

    The 2^|E| subsets are walked depth-first, toggling one edge per level on a
    union-find without path compression so each union can be undone in O(1).
    """
    parent = list(range(n))
    size = [1] * n
    counts = {}
    m = len(edges)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i, sign):
        if i == m:
            key = tuple(sorted((size[v] for v in range(n) if parent[v] == v), reverse=True))
            counts[key] = counts.get(key, 0) + sign
            return
        u, v = edges[i]
        rec(i + 1, sign)
        ru, rv = find(u), find(v)
        if ru == rv:
            rec(i + 1, -sign)
        else:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            rec(i + 1, -sign)
            size[ru] -= size[rv]
            parent[rv] = rv

    rec(0, 1)
    return counts


def _convolve_counts(a, b):
    if a is None:
        return b
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return out


@lru_cache(maxsize=4096)
def _csf_subsets_cached(g: Graph) -> SymFunc:
    total = None
    for comp in g.components():
        local = {v: i for i, v in enumerate(comp)}
        edges = [(local[u], local[v]) for u, v in g.edge_list if u in local and v in local]
        total = _convolve_counts(total, _subset_counts(len(comp), edges))
    if total is None:
        total = {(): 1}
    return SymFunc(Basis.P, g.n, {Partition(k): Fraction(c) for k, c in total.items() if c})


def csf_subsets(g: Graph, max_edges=None) -> SymFunc:
    """Chromatic symmetric function by the edge-subset expansion (p basis).

    Runtime 2^|E|; guarded at ``max_edges`` (default 26).
    """
    cap = DEFAULT_SUBSET_EDGE_CAP if max_edges is None else max_edges
    if len(g.edges) > cap:
        raise ValueError(f"subset oracle guarded at {cap} edges, graph has {len(g.edges)}")
    return _csf_subsets_cached(g)


# ---------------------------------------------------- deletion-contraction


def _block_key(vertices) -> tuple:
    return tuple(sorted(vertices))


def _bridges(edge_set):
    """Bridge edges of the graph formed by an edge set (endpoints are any sortable keys).

    Iterative lowlink DFS; the edge set never contains parallel copies, so a
    neighbor equal to the DFS parent is always the tree edge itself.
    """
    adj = {}
    for a, b in edge_set:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    disc, low = {}, {}
    bridges = set()
    t = 0
    for root in sorted(adj):
        if root in disc:
            continue
        disc[root] = low[root] = t
        t += 1
        stack = [(root, None, iter(adj[root]))]
        while stack:
            node, parent, it = stack[-1]
            pushed = False
            for nxt in it:
                if nxt not in disc:
                    disc[nxt] = low[nxt] = t
                    t += 1
                    stack.append((nxt, node, iter(adj[nxt])))
                    pushed = True
                    break
                if nxt != parent and disc[nxt] < low[node]:
                    low[node] = disc[nxt]
            if not pushed:
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    if low[node] < low[up]:
                        low[up] = low[node]
                    if low[node] > disc[up]:
                        bridges.add((node, up) if node < up else (up, node))
    return bridges


def csf_dc(g, max_total_weight=None) -> SymFunc:
    """Chromatic symmetric function by weighted deletion-contraction (p basis).

    Accepts a ``Graph`` (unit weights) or a ``WeightedMultigraph``.  Any loop
    makes the function identically zero; parallel edges beyond the first copy
    are discarded.  Recursion states are memoized on their contracted-block
    structure, so delete/contract interleavings that reach the same minor are
    evaluated once.
    """
    if isinstance(g, Graph):
        g = WeightedMultigraph.from_graph(g)
    weights = g.weights
    degree = g.total_weight
    if max_total_weight is not None and degree > max_total_weight:
        raise ValueError(
            f"total weight {degree} exceeds cap {max_total_weight}"
        )
    if any(u == v for u, v in g.edges):
        return SymFunc.zero(Basis.P, degree)
    base_edges = set()
    for u, v in g.edges:
        a, b = _block_key([u]), _block_key([v])
        base_edges.add((a, b) if a < b else (b, a))

    def weight_of(block):
        return sum(weights[i] for i in block)

    memo = {}

    def blocks_of(edges):
        out = set()
        for a, b in edges:
            out.add(a)
            out.add(b)
        return out

    def append_parts(table, extra):
        if not extra:
            return table
        out = {}
        for key, c in table.items():
            nk = tuple(sorted(key + extra, reverse=True))
            out[nk] = out.get(nk, 0) + c
        return out

    def pick_edge(edges):
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        bridges = _bridges(edges)
        pool = [e for e in edges if e not in bridges] or list(edges)
        return max(pool, key=lambda e: (deg[e[0]] + deg[e[1]], e))

    def rec(edges):
        if not edges:
            return {(): 1}
        hit = memo.get(edges)
        if hit is not None:
            return hit
        e = pick_edge(edges)
        a, b = e
        rest = edges - {e}
        live = blocks_of(rest)
        extra = tuple(weight_of(x) for x in (a, b) if x not in live)
        deleted = append_parts(rec(rest), extra)
        merged = _block_key(a + b)
        contracted_edges = set()
        for u, v in rest:
            if u in (a, b):
                u = merged
            if v in (a, b):
                v = merged
            contracted_edges.add((u, v) if u < v else (v, u))
        contracted_edges = frozenset(contracted_edges)
        live2 = blocks_of(contracted_edges)
        extra2 = (weight_of(merged),) if merged not in live2 else ()
        contracted = append_parts(rec(contracted_edges), extra2)
        out = dict(deleted)
        for key, c in contracted.items():
            out[key] = out.get(key, 0) - c
        out = {k: c for k, c in out.items() if c}
        memo[edges] = out
        return out

    table = rec(frozenset(base_edges))
    isolated = tuple(
        weights[v]
        for v in range(len(weights))
        if not any(v in (u, w) for u, w in g.edges)
    )
    table = {
        tuple(sorted(k + isolated, reverse=True)): c for k, c in table.items()
    } if isolated else table
    return SymFunc(Basis.P, degree, {Partition(k): Fraction(c) for k, c in table.items()})


# ------------------------------------------------------------- closed forms


@lru_cache(maxsize=None)
def csf_path_closed(d: int) -> SymFunc:
    """e-expansion of the path on d >= 1 vertices, term by term.

    For lambda with multiplicity vector (a_1, ..., a_d) the coefficient is

        multinomial(a)  * prod_j (j-1)^{a_j}
      + sum_i multinomial(a with a_i-1) * prod_{j != i} (j-1)^{a_j} * (i-1)^{a_i - 1}

    with the convention 0^0 = 1.
    """
    if d < 1:
        raise ValueError("path needs at least one vertex")
    terms = {}
    for lam in partitions_of(d):
        mult = lam.multiplicities()
        counts = list(mult.values())
        coeff = _multinomial(counts)
        for j, a in mult.items():
            coeff *= (j - 1) ** a
        for i, a_i in mult.items():
            part = _multinomial([mult[j] - (1 if j == i else 0) for j in mult])
            for j, a in mult.items():
                part *= (j - 1) ** (a - 1 if j == i else a)
            coeff += part
        if coeff:
            terms[lam] = Fraction(coeff)
    return SymFunc(Basis.E, d, terms)


@lru_cache(maxsize=None)
def csf_cycle_closed(d: int) -> SymFunc:
    """e-expansion of the cycle on d >= 2 vertices.

    d = 2 denotes the single edge K_2 (the degenerate two-cycle), which keeps
    every elimination formula below uniform.  The coefficient of e_lambda is

        sum_i multinomial(a with a_i-1) * i * prod_j (j-1)^{a_j}.
    """
    if d < 2:
        raise ValueError("cycle forms need d >= 2")
    terms = {}
    for lam in partitions_of(d):
        mult = lam.multiplicities()
        full = 1
        for j, a in mult.items():
            full *= (j - 1) ** a
        coeff = 0
        if full:
            for i in mult:
                coeff += _multinomial(
                    [mult[j] - (1 if j == i else 0) for j in mult]
                ) * i * full
        if coeff:
            terms[lam] = Fraction(coeff)
    return SymFunc(Basis.E, d, terms)


def csf_complete_closed(n: int) -> SymFunc:
    """X of the complete graph: n! e_n."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return SymFunc.single(Basis.E, (n,), factorial(n))


@lru_cache(maxsize=None)
def csf_tadpole_closed(a: int, b: int) -> SymFunc:
    """X of the cycle C_a with a pendant b-vertex path, by cycle-side elimination:

        X = (a-1) X_{P_{a+b}} - sum_{i=2}^{a-1} X_{P_{a+b-i}} X_{C_i}.
    """
    if a < 2 or b < 0:
        raise ValueError("tadpole forms need a >= 2, b >= 0")
    out = (a - 1) * csf_path_closed(a + b)
    for i in range(2, a):
        out = out - csf_path_closed(a + b - i) * csf_cycle_closed(i)
    return out


@lru_cache(maxsize=None)
def csf_lollipop_closed(a: int, b: int) -> SymFunc:
    """X of the clique K_a with a pendant b-vertex path:

        X = (a-1)! ( X_{P_{a+b}}
                     - sum_{i=1}^{a-2} (a-i-1)/(a-i)! X_{K_{a-i}} X_{P_{b+i}} ).
    """
    if a < 1 or b < 0:
        raise ValueError("lollipop forms need a >= 1, b >= 0")
    inner = csf_path_closed(a + b)
    for i in range(1, a - 1):
        scale = Fraction(a - i - 1, factorial(a - i))
        inner = inner - scale * (csf_complete_closed(a - i) * csf_path_closed(b + i))
    return factorial(a - 1) * inner


@lru_cache(maxsize=None)
def csf_dumbbell_closed(m: int, l: int, n: int) -> SymFunc:
    """X of the two-cycle dumbbell, fully expanded into paths and cycles:

        (m-1)(n-1) P_{m+l+n}
        - (m-1) sum_{i=2}^{n-1} P_{m+l+n-i} C_i
        - (n-1) sum_{j=2}^{m-1} P_{m+l+n-j} C_j
        + sum_{i=2}^{n-1} sum_{j=2}^{m-1} P_{m+l+n-i-j} C_i C_j.
    """
    _check_dumbbell_params(m, l, n)
    d = m + l + n
    out = (m - 1) * (n - 1) * csf_path_closed(d)
    for i in range(2, n):
        out = out - (m - 1) * (csf_path_closed(d - i) * csf_cycle_closed(i))
    for j in range(2, m):
        out = out - (n - 1) * (csf_path_closed(d - j) * csf_cycle_closed(j))
    for i in range(2, n):
        for j in range(2, m):
            out = out + csf_path_closed(d - i - j) * csf_cycle_closed(i) * csf_cycle_closed(j)
    return out


@lru_cache(maxsize=None)
def csf_complete_dumbbell_closed(m: int, l: int, n: int) -> SymFunc:
    """X of the two-clique dumbbell, fully expanded into cliques and paths:

        X / ((m-1)!(n-1)!) =
          P_{m+l+n}
          - sum_{i=1}^{m-2} (m-i-1)/(m-i)! K_{m-i} P_{n+l+i}
          - sum_{j=1}^{n-2} (n-j-1)/(n-j)! K_{n-j} P_{m+l+j}
          + sum_i sum_j (m-i-1)(n-j-1)/((m-i)!(n-j)!) K_{m-i} K_{n-j} P_{l+i+j}.
    """
    _check_dumbbell_params(m, l, n)
    d = m + l + n
    inner = csf_path_closed(d)
    for i in range(1, m - 1):
        inner = inner - Fraction(m - i - 1, factorial(m - i)) * (
            csf_complete_closed(m - i) * csf_path_closed(n + l + i)
        )
    for j in range(1, n - 1):
        inner = inner - Fraction(n - j - 1, factorial(n - j)) * (
            csf_complete_closed(n - j) * csf_path_closed(m + l + j)
        )
    for i in range(1, m - 1):
        for j in range(1, n - 1):
            scale = Fraction(
                (m - i - 1) * (n - j - 1), factorial(m - i) * factorial(n - j)
            )
            inner = inner + scale * (
                csf_complete_closed(m - i) * csf_complete_closed(n - j) * csf_path_closed(l + i + j)
            )
    return factorial(m - 1) * factorial(n - 1) * inner


@lru_cache(maxsize=None)
def csf_semicomplete_dumbbell_closed(m: int, l: int, n: int) -> SymFunc:
    """X of the cycle-clique dumbbell by eliminating the cycle side:

        X = (m-1) X_{L_{n,m+l}} - sum_{k=1}^{m-2} X_{L_{n,l+k}} X_{C_{m-k}},

    the same unrolled triple-deletion that expands the two-cycle dumbbell into
    tadpoles, with the far side a lollipop instead.
    """
    _check_dumbbell_params(m, l, n)
    out = (m - 1) * csf_lollipop_closed(n, m + l)
    for k in range(1, m - 1):
        out = out - csf_lollipop_closed(n, l + k) * csf_cycle_closed(m - k)
    return out


def _check_dumbbell_params(m, l, n):
    if m < 3 or n < 3:
        raise ValueError("dumbbell forms need m, n >= 3")
    if l < -1:
        raise ValueError("dumbbell forms need l >= -1")


# -------------------------------------------------------- chromatic polynomials


class ChromPoly:
    """Integer polynomial stored densely, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        cs = [int(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return ChromPoly([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __sub__(self, other):
        return self + ChromPoly([-c for c in other.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return ChromPoly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ChromPoly(out)

    __rmul__ = __mul__

    def shift_divide(self) -> "ChromPoly":
        """Exact division by x; raises if the constant term is nonzero."""
        if self.coeffs[0] != 0:
            raise ArithmeticError("polynomial not divisible by x")
        return ChromPoly(self.coeffs[1:] or (0,))

    def __eq__(self, other):
        return isinstance(other, ChromPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json_obj(self):
        return list(self.coeffs)

    def __repr__(self):
        return f"ChromPoly({list(self.coeffs)})"

    def __str__(self):
        if self.coeffs == (0,):
            return "0"
        chunks = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xpart = "x" if k == 1 else f"x^{k}"
                body = xpart if mag == 1 else f"{mag}*{xpart}"
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out


_X = ChromPoly((0, 1))
_XM1 = ChromPoly((-1, 1))


def _poly_pow(p: ChromPoly, k: int) -> ChromPoly:
    out = ChromPoly((1,))
    for _ in range(k):
        out = out * p
    return out


@lru_cache(maxsize=4096)
def _chromatic_dc_cached(g: Graph) -> ChromPoly:
    base_edges = set()
    for u, v in g.edge_list:
        a, b = _block_key([u]), _block_key([v])
        base_edges.add((a, b) if a < b else (b, a))
    memo = {}

    def rec(edges):
        hit = memo.get(edges)
        if hit is not None:
            return hit
        blocks = set()
        for a, b in edges:
            blocks.add(a)
            blocks.add(b)
        comp = _component_count(edges, blocks)
        if len(edges) == len(blocks) - comp:  # forest: close in one step
            out = _poly_pow(_XM1, len(edges)) * _poly_pow(_X, comp)
            memo[edges] = out
            return out
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        bridges = _bridges(edges)
        pool = [e for e in edges if e not in bridges]
        e = max(pool, key=lambda ed: (deg[ed[0]] + deg[ed[1]], ed))
        a, b = e
        rest = edges - {e}
        merged = _block_key(a + b)
        contracted = set()
        for u, v in rest:
            if u in (a, b):
                u = merged
            if v in (a, b):
                v = merged
            contracted.add((u, v) if u < v else (v, u))
        out = rec(rest) - rec(frozenset(contracted))
        memo[edges] = out
        return out

    def _component_count(edges, blocks):
        parent = {x: x for x in blocks}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = len(blocks)
        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        return comps

    covered = {v for e in g.edges for v in e}
    isolated = g.n - len(covered)
    if not base_edges:
        return _poly_pow(_X, g.n)
    return rec(frozenset(base_edges)) * _poly_pow(_X, isolated)


def chromatic_poly_dc(g: Graph, max_edges=None) -> ChromPoly:
    """Chromatic polynomial by deletion-contraction with forest closing.

    Acyclic states finish in one step as x^c (x-1)^{|E|}; cyclic states branch
    on a non-bridge edge, so recursion depth tracks the cycle rank, and block
    memoization collapses repeated minors.
    """
    cap = DEFAULT_CHROMPOLY_EDGE_CAP if max_edges is None else max_edges
    if len(g.edges) > cap:
        raise ValueError(f"chromatic recursion guarded at {cap} edges, graph has {len(g.edges)}")
    return _chromatic_dc_cached(g)


def chromatic_poly_closed(spec) -> ChromPoly:
    """Closed-form chromatic polynomial for suns and the three dumbbell kinds."""
    if isinstance(spec, str):
        spec = parse_graph_spec(spec)
    fam = spec.family
    if fam == "sun":
        n, rays = spec.args
        _check_sun_args(n, rays)
        cyc = _poly_pow(_XM1, n) + (-1) ** n * _XM1
        return cyc * _poly_pow(_XM1, sum(rays))
    if fam == "dumbbell":
        m, l, n = spec.args
        _check_dumbbell_params(m, l, n)
        num = (
            _poly_pow(_XM1, l + 3)
            * (_poly_pow(_XM1, m - 1) + ChromPoly(((-1) ** m,)))
            * (_poly_pow(_XM1, n - 1) + ChromPoly(((-1) ** n,)))
        )
        return num.shift_divide()
    if fam == "cdumbbell":
        m, l, n = spec.args
        _check_dumbbell_params(m, l, n)
        big, small = max(m, n), min(m, n)
        out = _X * _poly_pow(_XM1, l + 3)
        for k in range(2, small):
            out = out * ChromPoly((-k, 1)) * ChromPoly((-k, 1))
        for k in range(small, big):
            out = out * ChromPoly((-k, 1))
        return out
    if fam == "sdumbbell":
        m, l, n = spec.args
        _check_dumbbell_params(m, l, n)
        out = (_poly_pow(_XM1, m) + (-1) ** m * _XM1) * _poly_pow(_XM1, l + 2)
        for k in range(2, n):
            out = out * ChromPoly((-k, 1))
        return out
    raise ValueError(f"no closed chromatic polynomial for family {fam!r}")


# ------------------------------------------------------------ engine routing


_CLOSED_BUILDERS = {
    "path": lambda a: csf_path_closed(a[0]),
    "cycle": lambda a: csf_cycle_closed(a[0]) if a[0] >= 3 else None,
    "complete": lambda a: csf_complete_closed(a[0]),
    "tadpole": lambda a: csf_tadpole_closed(a[0], a[1]),
    "lollipop": lambda a: csf_lollipop_closed(a[0], a[1]),
    "dumbbell": lambda a: csf_dumbbell_closed(*a),
    "cdumbbell": lambda a: csf_complete_dumbbell_closed(*a),
    "sdumbbell": lambda a: csf_semicomplete_dumbbell_closed(*a),
}


def closed_csf_for(spec: GraphSpec):
    """The closed-form e-basis CSF for the spec's family, or None if it has none."""
    builder = _CLOSED_BUILDERS.get(spec.family)
    if builder is None:
        return None
    return builder(spec.args)


def compute_csf(target, engine: str = "auto", max_subset_edges=None):
    """Compute X_G in the elementary basis; returns (SymFunc, engine_used).

    ``target`` may be a Graph, GraphSpec or spec string.  Engine "auto" uses a
    validated closed form when the family has one, the subset oracle for small
    edge counts, and memoized deletion-contraction otherwise.  Engine "oracle"
    routes like "auto" but never through a closed form, so its result is
    independent of the family formulas.  Explicit engine names ("closed",
    "subsets", "dc") force a route.
    """
    spec = None
    if isinstance(target, str):
        spec = parse_graph_spec(target)
    elif isinstance(target, GraphSpec):
        spec = target
    if engine in ("auto", "closed") and spec is not None:
        closed = closed_csf_for(spec)
        if closed is not None:
            return closed, "closed"
        if engine == "closed":
            raise ValueError(f"family {spec.family!r} has no closed CSF form")
    elif engine == "closed":
        raise ValueError("closed engine needs a graph spec, not a bare graph")
    g = spec.build() if spec is not None else target
    if engine == "subsets":
        return p_to_e(csf_subsets(g, max_subset_edges)), "subsets"
    if engine == "dc":
        return p_to_e(csf_dc(g)), "dc"
    if engine in ("auto", "oracle"):
        if len(g.edges) <= AUTO_SUBSET_THRESHOLD:
            return p_to_e(csf_subsets(g, max_subset_edges)), "subsets"
        return p_to_e(csf_dc(g)), "dc"
    raise ValueError(f"unknown engine {engine!r}")
