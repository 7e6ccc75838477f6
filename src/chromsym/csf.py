"""Chromatic symmetric functions and chromatic polynomials, by three routes.

Engines:

* ``csf_subsets`` -- the edge-subset expansion
  :math:`X_G = \\sum_{S \\subseteq E} (-1)^{|S|} p_{\\lambda(S)}`,
  evaluated by a frontier-state dynamic program that merges the subsets
  reaching the same partition of the live vertices and drops each pair of
  subsets that cancel.  This is the formula-free oracle every other route is
  checked against.
* one deletion-contraction kernel, ``_deletion_contraction``, over states
  whose vertices are clumps of original vertices (the weighted recursion of
  Crew and Spirkl, :math:`X_G = X_{G\\setminus e} - X_{G/e}`, where
  contraction merges the endpoint clumps and a clump's weight is its size).
  Its moves: a disconnected state is the product of its components, each
  memoized on its edge set; a connected state may close in one step;
  otherwise it deletes and contracts the non-bridge edge of largest degree
  sum.  ``csf_dc`` runs it on integer p-tables.  ``chromatic_poly_dc`` first
  splits the graph into 2-connected blocks,
  P(G) = x^{n - sum_B (|V(B)|-1)} prod_B P(B)/x, and runs it on each block,
  where trees close to x(x-1)^{|E|} and complete states to a falling
  factorial.
* closed forms for paths, cycles, complete graphs, tadpoles, lollipops and the
  dumbbell families, accepted only because the test suite pins them to the
  subset oracle on overlapping grids.  Each checks its arguments by
  ``GraphSpec.check``, the rule its family's builder runs.

Component products, block products and the tree and clique closings are
theorems about all graphs, not family formulas: no ``*_closed`` function is
ever called on the deletion-contraction path, so it stays an independent
check of them.  The two CSF engines return power-sum expansions with integer
coefficients; closed forms are elementary-basis native.

``compute_csf`` takes no options and picks its engine from its input alone:
a spec whose family has a closed form returns it, any other spec is built,
and a ``Graph`` goes to ``csf_subsets`` (``csf_dc`` is the tests' second
route).  ``compute_csf(spec.build())`` is thus the formula-free route every
identity check compares the closed forms with.

Each guard is a fixed module constant, checked by the function that does the
work before it starts: both CSF engines refuse graphs above ``CSF_EDGE_CAP``
edges or ``DEFAULT_ENUMERATION_CAP`` vertices, and ``chromatic_poly_dc``
refuses graphs above ``DEFAULT_CHROMPOLY_EDGE_CAP`` edges.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial

from .graphs import Graph, GraphSpec, as_spec
from .partitions import DEFAULT_ENUMERATION_CAP, partitions_of
from .symfunc import Basis, SymFunc, _multinomial, p_to_e, signed_sum

#: ceiling on |E| for both CSF engines, the subset oracle and deletion-contraction
CSF_EDGE_CAP = 26
#: ceiling on |E| for chromatic-polynomial deletion-contraction
DEFAULT_CHROMPOLY_EDGE_CAP = 40


# ------------------------------------------------------------- subset oracle


def _subset_counts(n, edges):
    """Signed counts {component-size tuple: sum of (-1)^|S|} over subsets of ``edges``.

    A frontier-state dynamic program (Sekine, Imai and Tani 1995; Kawahara et
    al. 2017).  The edges are decided one at a time, in a BFS vertex order
    with each edge placed by its later endpoint, and subsets that reach the
    same state share one signed count.  A state is the block label of each
    frontier vertex (one that has met an edge and has edges left), renumbered
    by first appearance, the size of each live block, and the descending
    sizes of the closed components; the first two key ``states`` and the
    third keys a table of counts.  A vertex leaves the frontier after its last
    edge, and a block with no frontier vertex left closes; an isolated vertex
    is closed from the start.  An edge whose endpoints already share a block
    drops the state: skipping and taking it lead to the same successor with
    opposite signs.  The subsets left are the |P_G(-1)| sets with no broken
    circuit (Stanley 1995, Thm 2.9).
    """
    adj = Graph(n, edges).adjacency()
    pos = {}
    for root in range(n):
        queue = [root]
        for x in queue:  # the list grows while it is walked: a BFS
            if x not in pos:
                pos[x] = len(pos)
                queue += adj[x]
    order = sorted(edges, key=lambda e: sorted((pos[e[0]], pos[e[1]]), reverse=True))
    last = {x: i for i, e in enumerate(order) for x in e}  # each vertex's last edge
    front = []
    states = {((), ()): {(1,) * (n - len(last)): 1}}
    for i, (u, v) in enumerate(order):
        added = [x for x in (u, v) if x not in front]
        front += added
        pu, pv = front.index(u), front.index(v)
        keep = [p for p, x in enumerate(front) if last[x] != i]
        front = [front[p] for p in keep]
        nxt = {}
        for (labels, sizes), table in states.items():
            labels += tuple(range(len(sizes), len(sizes) + len(added)))
            sizes += (1,) * len(added)
            a, b = sorted((labels[pu], labels[pv]))
            if a == b:
                continue
            joined = tuple(a if x == b else x - (x > b) for x in labels)
            grown = sizes[:a] + (sizes[a] + sizes[b],) + sizes[a + 1:b] + sizes[b + 1:]
            for lab, siz, sign in ((labels, sizes, 1), (joined, grown, -1)):
                gone = ()
                if len(keep) < len(lab):
                    kept = [lab[p] for p in keep]
                    live = dict.fromkeys(kept)
                    gone = tuple(s for x, s in enumerate(siz) if x not in live)
                    rank = {x: r for r, x in enumerate(live)}
                    lab, siz = tuple(rank[x] for x in kept), tuple(siz[x] for x in live)
                out = nxt.setdefault((lab, siz), {})
                for closed, c in table.items():
                    if gone:
                        closed = tuple(sorted(closed + gone, reverse=True))
                    out[closed] = out.get(closed, 0) + sign * c
        states = nxt
    return states.get(((), ()), {})


def _convolve_counts(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return out


def csf_subsets(g: Graph) -> SymFunc:
    """Chromatic symmetric function by the edge-subset expansion (p basis).

    Runs ``_subset_counts``; guarded at ``CSF_EDGE_CAP`` edges and
    ``DEFAULT_ENUMERATION_CAP`` vertices.
    """
    if len(g.edges) > CSF_EDGE_CAP:
        raise ValueError(f"subset oracle guarded at {CSF_EDGE_CAP} edges, graph has {len(g.edges)}")
    if g.n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"subset oracle guarded at {DEFAULT_ENUMERATION_CAP} vertices, graph has {g.n}")
    return SymFunc(Basis.P, g.n, _subset_counts(g.n, g.edge_list))


# ---------------------------------------------------- deletion-contraction


def _clump(vertices) -> tuple:
    """A state vertex: the sorted original vertices contracted into it."""
    return tuple(sorted(vertices))


def _biconnected(edges):
    """2-connected blocks of an edge set, grouped by connected component.

    One iterative lowlink DFS with an edge stack.  Returns a list per
    component of its blocks, each a list of edges ``(a, b)`` with ``a < b``; a
    one-edge block is a bridge.  Endpoints are any sortable keys, and the set
    holds no parallel copies, so a neighbor equal to the DFS parent is always
    the tree edge itself.
    """
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    disc, low = {}, {}
    components = []
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        blocks, pending = [], []
        stack = [(root, None, iter(adj[root]))]
        while stack:
            node, parent, it = stack[-1]
            for nxt in it:
                if nxt not in disc:
                    disc[nxt] = low[nxt] = len(disc)
                    pending.append((node, nxt) if node < nxt else (nxt, node))
                    stack.append((nxt, node, iter(adj[nxt])))
                    break
                if nxt != parent and disc[nxt] < disc[node]:  # back edge, seen once
                    pending.append((node, nxt) if node < nxt else (nxt, node))
                    if disc[nxt] < low[node]:
                        low[node] = disc[nxt]
            else:
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    if low[node] < low[up]:
                        low[up] = low[node]
                    if low[node] >= disc[up]:  # ``up`` cuts off the block below it
                        tree_edge = (up, node) if up < node else (node, up)
                        block = []
                        while True:
                            e = pending.pop()
                            block.append(e)
                            if e == tree_edge:
                                break
                        blocks.append(block)
        components.append(blocks)
    return components


def _deletion_contraction(state, leaf, close=None, mul=operator.mul, sub=operator.sub):
    """Evaluate a deletion-contraction invariant of a nonempty edge state.

    A state is a frozenset of edges ``(a, b)``, ``a < b``, between clumps (see
    ``_clump``).  The invariant is multiplicative over components, so a
    disconnected state is the product (``mul``) of its components, each
    memoized on its edge set for this call.  On a connected state
    ``close(state)`` may return the value directly; otherwise the kernel
    returns ``sub(value(G - e), value(G / e))`` for the non-bridge edge e with
    the largest degree sum (any edge on a tree), multiplying in
    ``leaf(clump)`` for each clump the move leaves isolated.  Contraction
    merges the endpoint clumps and collapses parallel edges.
    """
    memo = {}

    def value(edges):
        hit = memo.get(edges)
        if hit is not None:
            return hit
        components = _biconnected(edges)
        if len(components) == 1:
            return connected(edges, components[0])
        factors = []
        for blocks in components:
            comp = frozenset(e for block in blocks for e in block)
            hit = memo.get(comp)
            factors.append(hit if hit is not None else connected(comp, blocks))
        return reduce(mul, factors)

    def connected(edges, blocks):
        out = close(edges) if close is not None else None
        if out is None:
            deg = {}
            for a, b in edges:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            pool = [e for block in blocks if len(block) > 1 for e in block] or edges
            e = max(pool, key=lambda ed: (deg[ed[0]] + deg[ed[1]], ed))
            a, b = e
            rest = edges - {e}
            deleted = [leaf(x) for x in e if deg[x] == 1]
            if rest:
                deleted.append(value(rest))
            merged = _clump(a + b)
            contracted = set()
            for u, v in rest:
                if u in e:
                    u = merged
                if v in e:
                    v = merged
                contracted.add((u, v) if u < v else (v, u))
            out = sub(
                reduce(mul, deleted),
                value(frozenset(contracted)) if contracted else leaf(merged),
            )
        memo[edges] = out
        return out

    return value(state)


def _unit_edges(edge_list) -> frozenset:
    """The starting state: every vertex its own clump."""
    return frozenset(((u,), (v,)) for u, v in edge_list)


def _subtract_counts(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) - c
    return {k: c for k, c in out.items() if c}


def csf_dc(g: Graph) -> SymFunc:
    """Chromatic symmetric function by weighted deletion-contraction (p basis).

    The kernel works on integer p-tables {parts: coefficient}: an isolated
    clump of k vertices is p_k, and the product is concatenation.  Each
    isolated vertex of ``g`` adds a part 1.  Guarded at ``CSF_EDGE_CAP`` edges
    and ``DEFAULT_ENUMERATION_CAP`` vertices.
    """
    if len(g.edges) > CSF_EDGE_CAP:
        raise ValueError(f"CSF deletion-contraction guarded at {CSF_EDGE_CAP} edges, graph has {len(g.edges)}")
    if g.n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"CSF deletion-contraction guarded at {DEFAULT_ENUMERATION_CAP} vertices, graph has {g.n}")
    table = {(): 1}
    if g.edges:
        table = _deletion_contraction(
            _unit_edges(g.edge_list),
            lambda clump: {(len(clump),): 1},
            mul=_convolve_counts,
            sub=_subtract_counts,
        )
    isolated = (1,) * (g.n - len({v for e in g.edges for v in e}))
    return SymFunc(Basis.P, g.n, {k + isolated: c for k, c in table.items()})


# ------------------------------------------------------------- closed forms


@lru_cache(maxsize=None)
def csf_path_closed(d: int) -> SymFunc:
    """e-expansion of the path on d >= 1 vertices, term by term.

    For lambda with multiplicity vector (a_1, ..., a_d) the coefficient is

        multinomial(a)  * prod_j (j-1)^{a_j}
      + sum_i multinomial(a with a_i-1) * prod_{j != i} (j-1)^{a_j} * (i-1)^{a_i - 1}

    with the convention 0^0 = 1.
    """
    GraphSpec("path", (d,)).check()
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
    GraphSpec("complete", (n,)).check()
    return SymFunc.single(Basis.E, (n,), factorial(n))


@lru_cache(maxsize=None)
def csf_tadpole_closed(a: int, b: int) -> SymFunc:
    """X of the cycle C_a with a pendant b-vertex path, by cycle-side elimination:

        X = (a-1) X_{P_{a+b}} - sum_{i=2}^{a-1} X_{P_{a+b-i}} X_{C_i}.
    """
    GraphSpec("tadpole", (a, b)).check()
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
    GraphSpec("lollipop", (a, b)).check()
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
    GraphSpec("dumbbell", (m, l, n)).check()
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
    GraphSpec("cdumbbell", (m, l, n)).check()
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
    GraphSpec("sdumbbell", (m, l, n)).check()
    out = (m - 1) * csf_lollipop_closed(n, m + l)
    for k in range(1, m - 1):
        out = out - csf_lollipop_closed(n, l + k) * csf_cycle_closed(m - k)
    return out


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
        return signed_sum(
            (self.coeffs[k], "" if k == 0 else "x" if k == 1 else f"x^{k}")
            for k in range(self.degree, -1, -1)
            if self.coeffs[k]
        )


_X = ChromPoly((0, 1))
_XM1 = ChromPoly((-1, 1))


def _poly_pow(p: ChromPoly, k: int) -> ChromPoly:
    out = ChromPoly((1,))
    for _ in range(k):
        out = out * p
    return out


def _falling(k: int) -> ChromPoly:
    """x (x-1) ... (x-k+1), the chromatic polynomial of K_k."""
    out = ChromPoly((1,))
    for i in range(k):
        out = out * ChromPoly((-i, 1))
    return out


def _close_chromatic(edges):
    """Trees close to x (x-1)^{|E|} and complete states to a falling factorial."""
    k = len({x for e in edges for x in e})
    if len(edges) == k - 1:
        return _X * _poly_pow(_XM1, len(edges))
    if 2 * len(edges) == k * (k - 1):
        return _falling(k)
    return None


def chromatic_poly_dc(g: Graph) -> ChromPoly:
    """Chromatic polynomial by blocks and deletion-contraction.

    The graph splits into its 2-connected blocks B, and
    P(G) = x^{n - sum_B (|V(B)|-1)} prod_B P(B)/x.  Each block runs through
    the deletion-contraction kernel, where trees and complete states close in
    one step and other states branch on a non-bridge edge.  Guarded at
    ``DEFAULT_CHROMPOLY_EDGE_CAP`` edges.
    """
    if len(g.edges) > DEFAULT_CHROMPOLY_EDGE_CAP:
        raise ValueError(f"chromatic recursion guarded at {DEFAULT_CHROMPOLY_EDGE_CAP} edges, graph has {len(g.edges)}")
    exponent = g.n
    out = ChromPoly((1,))
    for blocks in _biconnected(_unit_edges(g.edge_list)):
        for block in blocks:
            exponent -= len({x for e in block for x in e}) - 1
            poly = _deletion_contraction(frozenset(block), lambda _: _X, _close_chromatic)
            out = out * poly.shift_divide()
    return out * _poly_pow(_X, exponent)


def _cycle_chromatic(n: int) -> ChromPoly:
    """(x-1)^n + (-1)^n (x-1), the chromatic polynomial of C_n."""
    return _poly_pow(_XM1, n) + (-1) ** n * _XM1


def _closed_chromatic(spec: GraphSpec):
    """The closed chromatic polynomial of a checked spec, or None if its family has none."""
    fam, a = spec.family, spec.args
    if fam == "sun":
        n, rays = a
        return _cycle_chromatic(n) * _poly_pow(_XM1, sum(rays))
    if fam == "dumbbell":
        m, l, n = a
        num = (
            _poly_pow(_XM1, l + 3)
            * (_poly_pow(_XM1, m - 1) + ChromPoly(((-1) ** m,)))
            * (_poly_pow(_XM1, n - 1) + ChromPoly(((-1) ** n,)))
        )
        return num.shift_divide()
    if fam == "cdumbbell":
        m, l, n = a
        big, small = max(m, n), min(m, n)
        out = _X * _poly_pow(_XM1, l + 3)
        for k in range(2, small):
            out = out * ChromPoly((-k, 1)) * ChromPoly((-k, 1))
        for k in range(small, big):
            out = out * ChromPoly((-k, 1))
        return out
    if fam == "sdumbbell":
        m, l, n = a
        out = _cycle_chromatic(m) * _poly_pow(_XM1, l + 2)
        for k in range(2, n):
            out = out * ChromPoly((-k, 1))
        return out
    return None


def chromatic_poly_closed(spec) -> ChromPoly:
    """Closed-form chromatic polynomial for suns and the three dumbbell kinds."""
    spec = as_spec(spec)
    spec.check()
    out = _closed_chromatic(spec)
    if out is None:
        raise ValueError(f"no closed chromatic polynomial for family {spec.family!r}")
    return out


# ------------------------------------------------------------ engine routing


_CLOSED_FORMS = {
    "path": csf_path_closed,
    "cycle": csf_cycle_closed,
    "complete": csf_complete_closed,
    "tadpole": csf_tadpole_closed,
    "lollipop": csf_lollipop_closed,
    "dumbbell": csf_dumbbell_closed,
    "cdumbbell": csf_complete_dumbbell_closed,
    "sdumbbell": csf_semicomplete_dumbbell_closed,
}


def closed_csf_for(spec: GraphSpec):
    """The closed-form e-basis CSF for the spec's family, or None if it has none."""
    fn = _CLOSED_FORMS.get(spec.family)
    return None if fn is None else fn(*spec.args)


def compute_csf(target):
    """Compute X_G in the elementary basis; returns (SymFunc, engine_used).

    ``target`` may be a Graph, GraphSpec or spec string.  A spec whose family
    has a closed form returns it ("closed"); any other spec is built.  A
    ``Graph`` never meets a closed form: it goes to the subset expansion
    ("subsets").  So ``compute_csf(spec.build())`` is independent of the
    family formulas.
    """
    spec = as_spec(target)
    if spec is not None:
        spec.check()
        closed = closed_csf_for(spec)
        if closed is not None:
            return closed, "closed"
        target = spec.build()
    return p_to_e(csf_subsets(target)), "subsets"


def csf_degree(target) -> int:
    """|V|, the degree of X_G, without a CSF engine.  A spec with a closed form
    is neither built nor expanded: the arguments of each such family sum to
    |V| (n; m + l; m + l + n, where a dumbbell's l = -1 is a shared vertex)."""
    spec = as_spec(target)
    if spec is None:
        return target.n
    spec.check()
    return sum(spec.args) if spec.family in _CLOSED_FORMS else spec.build().n


def compute_chromatic(target):
    """Chromatic polynomial of a Graph, GraphSpec or spec string; returns
    (ChromPoly, engine_used).  A family with a closed form uses it, and any
    other graph goes through ``chromatic_poly_dc``.
    """
    spec = as_spec(target)
    if spec is not None:
        spec.check()
        closed = _closed_chromatic(spec)
        if closed is not None:
            return closed, "closed"
        target = spec.build()
    return chromatic_poly_dc(target), "dc"
