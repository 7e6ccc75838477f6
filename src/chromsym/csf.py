"""Chromatic symmetric functions and chromatic polynomials, by three routes.

Engines:

* ``csf_subsets`` -- the edge-subset expansion
  :math:`X_G = \\sum_{S \\subseteq E} (-1)^{|S|} p_{\\lambda(S)}`,
  evaluated by a frontier-state dynamic program with one step per vertex,
  in depth-first order, leaves first: v joins any set J of its adjacent
  live blocks with sign (-1)^|J|, the sum over the nonempty edge subsets
  into each block.  A block is kept as (size, mask of its later
  neighbours), all that a later step reads of it, so equal blocks are
  interchangeable, joining k of m of them weighs C(m, k) (-1)^k, and a
  clique body walks integer partitions instead of set partitions.  Most
  states meet v in one block only, and build their two successors directly:
  v joins the block, or starts its own while the block stays or closes.  The
  closed sizes are keyed on integer count vectors, and ``compute_csf``
  hands that table, still on those keys, to ``symfunc._newton``, the one
  p -> e route ``p_to_e`` also takes (nested evaluation on a process's first
  p -> e at a degree, packed rows on every later one up to degree 22);
  ``csf_subsets`` names its keys by ``symfunc._divided``, the pass that
  names every conversion's output, to give the p basis.  This is
  the formula-free oracle every other route is checked against.  Run
  without block sizes, it counts components only, which gives the
  chromatic polynomial :math:`P_G(x) = \\sum_S (-1)^{|S|} x^{c(S)}`.
* one deletion-contraction kernel, ``_deletion_contraction``, over states
  whose vertices are clumps, bit masks of original vertices (the weighted
  recursion of Crew and Spirkl, :math:`X_G = X_{G\\setminus e} - X_{G/e}`,
  where contraction ORs the endpoint clumps and a clump's weight is its
  popcount).  It takes a plain edge list and starts from each vertex v the
  clump 1 << v.  One recursion makes its moves: a state may close in one
  step; a disconnected state is the product of its components; a connected
  one, memoized on its edge set, deletes and contracts the non-bridge edge
  of largest degree sum.  ``csf_dc`` runs it on p-basis ``SymFunc`` values,
  whose product and difference the subset oracle thus checks.
* one block split for the chromatic polynomial, ``_block_product``:
  P(G) = x^{n - sum_B (|V(B)|-1)} prod_B P(B)/x over the 2-connected blocks
  B of the plain vertices, where the bridges give (x-1)^{bridges} and a
  clique closes to a falling factorial, rows built once per size.  Every
  other block is renumbered 0..k-1 in sorted-vertex order, and
  ``compute_chromatic`` evaluates it by the subset DP without sizes
  (``_subsets_block``); ``chromatic_poly_dc`` runs the kernel on it
  (``_dc_block``), where trees and complete states close, and is the second
  route that checks the first and the closed forms.  Each route memoizes
  its block polynomials per renumbered block, 1024 entries, in a memo of
  its own, so neither route reads the other's results.
* closed forms for paths, cycles, complete graphs, tadpoles, lollipops, the
  dumbbell families, spiders of at most three legs and suns or complete suns
  on a 3-vertex body, accepted only because the test suite pins them to the
  subset oracle on overlapping grids.  Each checks its arguments by
  ``GraphSpec.check`` (the cycle form, which admits d = 2, by the rules'
  ``_check_sizes``) and its vertex bound before any arithmetic.  Paths and
  cycles come from one series rule, ``_series``; tadpoles, lollipops and
  dumbbells remove each body by one rule, ``_eliminate``.  Every form works
  on (key, coefficient) pairs of ``partitions._count_keys``, the one table of
  every degree up to 63, through ``partitions._acc``, which also multiplies
  the rows the conversions keep once, packed, in ``symfunc._met``, and names
  its result by ``symfunc._divided``, the pass that names every conversion's
  output, so a form and its round trips share each Partition.  The pairs of
  paths, cycles, tadpoles and lollipops are memoized for the life of the
  process (``_path_keys``, ``_cycle_keys``, ``_tailed_keys``): the series
  recursion reads every smaller path or cycle, and every elimination reads
  its tails R(j), the paths of a tadpole or lollipop and the tadpoles or
  lollipops of a dumbbell, which neighbouring arguments share.  Every public
  call runs its guard before any memo, so a memo sees checked integers only.
  Dumbbells, spiders and 3-body suns, sums of path products each made once,
  are not memoized, as no workload asks for the same one twice; four or more
  legs or a larger sun body return None, before their guard: ``compute_csf``
  builds and guards those as any other spec.

Component products, block products and the tree and clique closings are
theorems about all graphs, not family formulas: no ``*_closed`` function is
ever called on the deletion-contraction or subset path, so both stay
independent checks of them.  All coefficients are integers: the CSF engines
expand in the p basis, and the closed forms, which use integer weights only,
in the e basis; ``symfunc._newton`` takes the first to the second.

``compute_csf`` takes no options and picks its engine from its input alone:
a spec that a closed form answers returns it, any other spec is built,
and a ``Graph`` goes to the subset DP, whose table goes to the e basis
undecoded (``csf_subsets`` and ``csf_dc`` are the tests' routes to the p
basis).  ``compute_csf(spec.build())`` is thus the formula-free route every
identity check compares the closed forms with.  ``compute_chromatic`` routes
the same way: a closed form for a sun or dumbbell spec, else the block split
with the subset DP.

Each guard is a fixed module constant, checked where the work is, before it
starts, and refused by ``_guard``: the CSF engines above ``CSF_EDGE_CAP``
edges, both chromatic routes above ``DEFAULT_CHROMPOLY_EDGE_CAP`` edges in a
block they evaluate, and every route above ``DEFAULT_ENUMERATION_CAP``
vertices, read for a spec from ``GraphSpec.check`` (``csf_degree``) before
any build or closed form; the edge caps run on the graph.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import zip_longest
from math import comb, factorial
from operator import mul

from .graphs import Graph, GraphSpec, _check_sizes, as_spec
from .partitions import DEFAULT_ENUMERATION_CAP, _acc, _count_keys
from .symfunc import Basis, SymFunc, _divided, _newton, signed_sum

#: ceiling on |E| for both CSF engines, the subset oracle and deletion-contraction
CSF_EDGE_CAP = 26
#: ceiling on |E| for chromatic-polynomial deletion-contraction
DEFAULT_CHROMPOLY_EDGE_CAP = 40


def _guard(route: str, size: int, cap: int = DEFAULT_ENUMERATION_CAP, unit: str = "vertices") -> int:
    if size > cap:
        raise ValueError(f"{route} guarded at {cap} {unit}, graph has {size}")
    return size


# ------------------------------------------------------------- subset oracle


def _subset_counts(n, edges, sizes=True):
    """Signed counts {component sizes: sum of (-1)^|S|} over subsets of ``edges``,
    the sizes as a ``_count_keys(n)`` integer, which the table keeps.

    A frontier-state dynamic program (Sekine, Imai and Tani 1995; Kawahara et
    al. 2017).  The vertices are taken one at a time in depth-first order, and
    the step of a vertex v decides all its edges to earlier vertices.  The
    cost grows with the frontier width, which the order decides: depth first
    walks one leg of a spider or one ray of a sun at a time, where breadth
    first holds them all open.  A vertex's leaf neighbours come right after
    it, so the block that holds it drops their bits at once instead of
    carrying them across the rest of its subtree.  A state is the sorted
    tuple of live blocks, each ``(size, mask)``, where the mask has a bit for
    every later vertex adjacent to the block: the union of its vertices'
    later neighbours.  It keys a table of counts by the multiset of closed
    component sizes, a ``_count_keys`` integer (no count exceeds n, so
    closing a block adds its unit without reaching a wrong index).

    A block that holds k >= 1 earlier neighbours of v reaches one successor by
    every nonempty subset of those k edges, with total sign
    sum_{j>=1} C(k, j) (-1)^j = -1, so v joins any set J of its adjacent blocks
    with sign (-1)^|J|.  A block is adjacent to v exactly when its mask has
    v's bit, and no later step reads more of it than its size and mask, so
    blocks with equal ``(size, mask)`` are interchangeable: joining k of m
    equal blocks weighs C(m, k) (-1)^k.  On a clique body every earlier
    vertex has the same later neighbours, so the states are the integer
    partitions of what has been met, not its set partitions.  v's own block
    starts at v's later neighbours; after the step every block drops v's
    bit, v's block ORs in the masks of the blocks it joins, and a block whose
    mask is empty closes.  A state with exactly one block adjacent to v, 78%
    of them on the identity grids, builds its two successors directly, with
    no tally of equal blocks; the loop that merges each successor's table
    into the next states does every closing for both kinds of state.  Every
    count of one key has the sign (-1)^(n - parts), so none is zero, and
    their absolute values sum to |P_G(-1)|, the number of sets with no
    broken circuit (Stanley 1995, Thm 2.9).

    With ``sizes`` false every block has size 0 and closing one adds 1 to the
    key, so blocks with the same later neighbours merge whatever their sizes,
    and the table is {number of components: count}: the coefficients of the
    chromatic polynomial P_G(x) = sum_S (-1)^|S| x^{c(S)}.
    """
    adj = Graph(n, edges).adjacency()
    pos, stack = {}, list(range(n - 1, -1, -1))
    while stack:  # roots in increasing order, leaf neighbours first, else in adjacency order
        x = stack.pop()
        if x not in pos:
            pos[x] = len(pos)
            stack += sorted(reversed(adj[x]), key=lambda y: len(adj[y]) == 1)  # leaves popped first
    later = [0] * n  # by position: the later neighbours, one bit per position
    for x, nbrs in enumerate(adj):
        later[pos[x]] = sum(1 << pos[y] for y in nbrs if pos[y] > pos[x])
    unit = _count_keys(n)[0] if sizes else [1]
    one = 1 if sizes else 0  # the size of v's own block
    states = {(): {0: 1}}
    for t, own in enumerate(later):
        bit = 1 << t
        nxt = {}
        for state, table in states.items():
            far = [b for b in state if not b[1] & bit]  # they keep their later neighbours
            if len(far) + 1 == len(state):  # one adjacent block b: v joins it, or starts its own and b stays or closes
                for b in state:
                    if b[1] & bit:
                        break
                s, after = b[0], b[1] ^ bit
                succ = ((1, one, own, 0, far + [(s, after)]) if after else (1, one, own, unit[s], far),
                        (-1, one + s, own | after, 0, far))
            else:
                adjacent = {}
                for b in state:
                    if b[1] & bit:
                        adjacent[b] = adjacent.get(b, 0) + 1
                succ = [(1, one, own, 0, far)]  # weight, v's block size and mask, closed sizes, blocks left
                for b, m in adjacent.items():
                    s, after = b[0], b[1] ^ bit  # the block after the step
                    stay, shut = ([(s, after)], 0) if after else ([], unit[s])  # left alone, it stays or closes
                    if m == 1:  # v joins the block or not
                        succ = [y for w, size, mask, g, blocks in succ
                                for y in ((w, size, mask, g + shut, blocks + stay), (-w, size + s, mask | after, g, blocks))]
                    else:  # v joins k of the m equal blocks
                        succ = [(w * comb(m, k) * (-1) ** k, size + k * s, mask | after if k else mask,
                                 g + (m - k) * shut, blocks + stay * (m - k))
                                for w, size, mask, g, blocks in succ for k in range(m + 1)]
            for w, size, mask, g, blocks in succ:
                if mask:
                    blocks = blocks + [(size, mask)]
                else:
                    g += unit[size]
                key = tuple(sorted(blocks))
                out = nxt.setdefault(key, {})
                for closed, c in table.items():
                    closed += g
                    out[closed] = out.get(closed, 0) + w * c
        states = nxt
    return states[()]


def _oracle_table(g: Graph) -> dict:
    """``_subset_counts`` of ``g``, on count keys, guarded at ``CSF_EDGE_CAP``
    edges and ``DEFAULT_ENUMERATION_CAP`` vertices before it runs."""
    _guard("subset oracle", len(g.edges), CSF_EDGE_CAP, "edges")
    _guard("subset oracle", g.n)
    return _subset_counts(g.n, g.edge_list)


def csf_subsets(g: Graph) -> SymFunc:
    """Chromatic symmetric function by the edge-subset expansion (p basis).

    Names the keys of ``_oracle_table`` by ``symfunc._divided``, the naming
    pass of every conversion; ``compute_csf`` takes the table to the e basis
    without naming it.
    """
    return _divided(Basis.P, g.n, _oracle_table(g).items(), 1)


# ---------------------------------------------------- deletion-contraction


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


def _deletion_contraction(edge_list, leaf, close=None):
    """Evaluate a deletion-contraction invariant of a graph from its edges.

    ``edge_list`` is a nonempty sequence of plain pairs ``(u, v)``, ``u < v``.  A
    state is a frozenset of edges ``(a, b)``, ``a < b``, between clumps, each
    the int bit mask of the original vertices contracted into it; the start
    state makes every vertex v the clump ``1 << v``.  Values are any type with
    ``*`` and ``-`` (``SymFunc``, ``ChromPoly``).  The invariant is
    multiplicative, so a state of several components is the product of
    ``value`` of each with its blocks.  A connected state, memoized on its
    edge set for this call, is ``value(G - e) - value(G / e)`` for the
    non-bridge edge e with the largest degree sum (any edge on a tree),
    times ``leaf(clump)`` for each clump the move leaves isolated.
    Contraction ORs the endpoint clumps and collapses parallel edges.

    ``close(state)`` may return the value directly, and is asked first, before
    the state is split into blocks, so it sees every state the kernel meets.
    These are all connected when the start state is and ``close`` closes
    every tree: a state that does not close then has a non-bridge edge to
    delete, and contraction keeps a state connected.
    """
    memo = {}

    def value(edges, blocks=None):
        out = memo.get(edges)
        if out is None and close is not None:
            out = close(edges)
        if out is not None:
            return out
        if blocks is None:
            components = _biconnected(edges)
            if len(components) > 1:
                return reduce(mul, [value(frozenset(e for block in c for e in block), c) for c in components])
            blocks = components[0]
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        pool = [e for block in blocks if len(block) > 1 for e in block] or edges
        e = max(pool, key=lambda ed: (deg[ed[0]] + deg[ed[1]], ed))
        rest = edges - {e}
        deleted = [leaf(x) for x in e if deg[x] == 1]
        if rest:
            deleted.append(value(rest))
        merged = e[0] | e[1]
        contracted = set()
        for u, v in rest:
            if u in e:
                u = merged
            if v in e:
                v = merged
            contracted.add((u, v) if u < v else (v, u))
        out = memo[edges] = reduce(mul, deleted) - (value(frozenset(contracted)) if contracted else leaf(merged))
        return out

    return value(frozenset((1 << u, 1 << v) for u, v in edge_list))


def csf_dc(g: Graph) -> SymFunc:
    """Chromatic symmetric function by weighted deletion-contraction (p basis).

    The kernel works on p-basis ``SymFunc`` values: an isolated clump of k
    vertices is p_k, and the isolated vertices of ``g`` are a factor p_1^k.
    Guarded at ``CSF_EDGE_CAP`` edges and ``DEFAULT_ENUMERATION_CAP`` vertices.
    """
    _guard("CSF deletion-contraction", len(g.edges), CSF_EDGE_CAP, "edges")
    _guard("CSF deletion-contraction", g.n)
    out = SymFunc.single(Basis.P, (1,) * (g.n - len({v for e in g.edges for v in e})))
    if g.edges:
        out = out * _deletion_contraction(g.edge_list, lambda clump: SymFunc.single(Basis.P, (clump.bit_count(),)))
    return out


# ------------------------------------------------------------- closed forms


#: the key of each one-part multiset {s}, on the one table of every degree up
#: to 63, which holds every closed form its vertex guard admits
_UNIT = _count_keys(DEFAULT_ENUMERATION_CAP)[0]
_ONE = ((0, 1),)  # e_0 = 1


def _closed_guard(family: str, *args) -> int:
    """The family's argument rule, then the vertex bound, before any arithmetic: |V|."""
    return _guard("closed form", GraphSpec(family, args).check())


def _series(lead: int, d: int, smallest: int, smaller) -> tuple:
    """lead e_d + sum_{i=2}^{d-smallest} (i-1) e_i X_{d-i}, where X_k = ``smaller(k)``:
    the z^d coefficient of a generating function N(z) / (1 - sum_{i>=2} (i-1) e_i z^i)
    whose smallest member X_k has k = ``smallest``."""
    out = {_UNIT[d]: lead}
    for i in range(2, d - smallest + 1):
        _acc(out, i - 1, smaller(d - i), ((_UNIT[i], 1),))
    return tuple((k, c) for k, c in out.items() if c)


@lru_cache(maxsize=None)
def _path_keys(d: int) -> tuple:
    return _series(d, d, 1, _path_keys)


@lru_cache(maxsize=None)
def _cycle_keys(d: int) -> tuple:
    return _series(d * (d - 1), d, 2, _cycle_keys)


def csf_path_closed(d: int) -> SymFunc:
    """e-expansion of the path on d >= 1 vertices, from the generating function
    sum_{n>=0} X_{P_n} z^n = sum_{i>=0} e_i z^i / (1 - sum_{i>=2} (i-1) e_i z^i)
    (Stanley 1995, §5), with X_{P_0} = 1:

        X_{P_d} = d e_d + sum_{i=2}^{d-1} (i-1) e_i X_{P_{d-i}}.
    """
    return _divided(Basis.E, d, _path_keys(_closed_guard("path", d)), 1)


def csf_cycle_closed(d: int) -> SymFunc:
    """e-expansion of the cycle on d >= 2 vertices, from the generating function
    sum_{n>=2} X_{C_n} z^n = sum_{i>=2} i(i-1) e_i z^i / (1 - sum_{i>=2} (i-1) e_i z^i)
    (Stanley 1995, §5):

        X_{C_d} = d(d-1) e_d + sum_{i=2}^{d-2} (i-1) e_i X_{C_{d-i}}.

    d = 2 gives 2 e_2, the single edge K_2 (the degenerate two-cycle), which
    keeps every elimination formula below uniform.
    """
    return _divided(Basis.E, d, _cycle_keys(_guard("closed form", _check_sizes(2, "cycle forms need d >= 2", d))), 1)


def clique_weight(a: int, i: int) -> int:
    """(a-1)! (a-i-1) / (a-i)!, an integer for 1 <= i < a: the weight of
    X_{K_{a-i}} when the clique K_a of a lollipop or dumbbell is eliminated."""
    return factorial(a - 1) * (a - i - 1) // factorial(a - i)


def csf_complete_closed(n: int) -> SymFunc:
    """X of the complete graph: n! e_n."""
    return _divided(Basis.E, n, ((_UNIT[_closed_guard("complete", n)], factorial(n)),), 1)


def _eliminate(body: str, m: int, rest) -> tuple:
    """X of a graph whose cycle or clique ``body`` on m vertices meets the rest
    at one vertex, by triple deletion on the body, where R(j) = ``rest(j)`` is
    X of the rest with its tail grown by j vertices:

        cycle:    (m-1) R(m) - sum_{k=1}^{m-2} X_{C_{m-k}} R(k),
        complete: (m-1)! R(m) - sum_{k=1}^{m-2} clique_weight(m, k) X_{K_{m-k}} R(k).
    """
    cycle = body == "cycle"
    out = _acc({}, m - 1 if cycle else factorial(m - 1), rest(m))
    for k in range(1, m - 1):
        factor = _cycle_keys(m - k) if cycle else ((_UNIT[m - k], clique_weight(m, k) * factorial(m - k)),)
        _acc(out, -1, factor, rest(k))
    return tuple((k, c) for k, c in out.items() if c)


@lru_cache(maxsize=None)
def _tailed_keys(body: str, a: int, b: int) -> tuple:
    return _eliminate(body, a, lambda j: _path_keys(b + j))


def csf_tadpole_closed(a: int, b: int) -> SymFunc:
    """X of the cycle C_a with a pendant b-vertex path, by cycle-side elimination:

        X = (a-1) X_{P_{a+b}} - sum_{i=2}^{a-1} X_{P_{a+b-i}} X_{C_i}.
    """
    return _divided(Basis.E, _closed_guard("tadpole", a, b), _tailed_keys("cycle", a, b), 1)


def csf_lollipop_closed(a: int, b: int) -> SymFunc:
    """X of the clique K_a with a pendant b-vertex path:

        X = (a-1)! X_{P_{a+b}} - sum_{i=1}^{a-2} w(a, i) X_{K_{a-i}} X_{P_{b+i}},

    where w(a, i) = (a-1)! (a-i-1) / (a-i)! is ``clique_weight(a, i)``.
    """
    return _divided(Basis.E, _closed_guard("lollipop", a, b), _tailed_keys("complete", a, b), 1)


def _spider(legs) -> list:
    """The (i, w) terms w X_{P_i} X_{P_{n-i}} of a spider of at most three
    ``legs``, n = sum(legs) + 1 (see ``csf_spider_closed``)."""
    _, b, k = sorted((*legs, 0, 0), reverse=True)[:3]
    return [(0, 1)] + [(i, 1) for i in range(1, k + 1)] + [(b + i, -1) for i in range(1, k + 1)]


def _path_products(n: int, terms) -> SymFunc:
    """The sum of w X_{P_i} X_{P_{n-i}} over the (i, w) ``terms``, X_{P_0} = 1,
    named: like terms are collected first, so each product is made once."""
    weights = {}
    for i, w in terms:
        i = min(i, n - i)
        weights[i] = weights.get(i, 0) + w
    out = {}
    for i, w in weights.items():
        if w:
            _acc(out, w, _path_keys(i) if i else _ONE, _path_keys(n - i))
    return _divided(Basis.E, n, out.items(), 1)


def csf_spider_closed(*legs):
    """X of a spider of legs a >= b >= c, absent legs 0, n = a + b + c + 1
    (Zheng 2022), so one or two legs give X_{P_n}; None for four legs or more:

        X = X_{P_n} + sum_{i=1}^{c} (X_{P_i} X_{P_{n-i}} - X_{P_{b+i}} X_{P_{n-b-i}}).
    """
    if len(legs) > 3:
        return None
    return _path_products(_closed_guard("spider", *legs), _spider(legs))


def _sun3_closed(k: int, rays):
    """X of a sun or complete sun on a body of k = 3 vertices, None for another
    k, by triple deletion (Orellana and Scott 2014) at the body vertex of ray a:

        X_{S(3;a,b,c)} = X_{spider(a+1,b+1,c)} + X_{spider(a+1,c+1,b)} - X_{P_{a+1}} X_{P_{b+c+2}}.
    """
    if k != 3:
        return None
    n = _closed_guard("sun", k, rays)
    a, b, c = rays
    return _path_products(n, _spider((a + 1, b + 1, c)) + _spider((a + 1, c + 1, b)) + [(a + 1, -1)])


#: dumbbell family -> (body on the m vertices, body on the n vertices)
_DUMBBELL_BODIES = {
    "dumbbell": ("cycle", "cycle"), "cdumbbell": ("complete", "complete"), "sdumbbell": ("cycle", "complete")
}


def _dumbbell(family: str, m: int, l: int, n: int) -> SymFunc:
    """Eliminate the m-body over R(j), the n-body with tail l + j: the cached
    tadpole T(n, l + j) or lollipop L(n, l + j)."""
    d = _closed_guard(family, m, l, n)
    first, second = _DUMBBELL_BODIES[family]
    return _divided(Basis.E, d, _eliminate(first, m, lambda j: _tailed_keys(second, n, l + j)), 1)


def csf_dumbbell_closed(m: int, l: int, n: int) -> SymFunc:
    """X of the two-cycle dumbbell by eliminating the m-cycle over the cached
    tadpoles T(n, l + j).

    The paper's double sum over paths and cycles is not computed here;
    ``ref_dumbbell`` in ``tests/test_csf.py`` checks it against this.
    """
    return _dumbbell("dumbbell", m, l, n)


def csf_complete_dumbbell_closed(m: int, l: int, n: int) -> SymFunc:
    """X of the two-clique dumbbell by eliminating the m-clique over the cached
    lollipops L(n, l + j).

    The paper's double sum over cliques and paths, weighted by
    ``clique_weight``, is not computed here; ``ref_complete_dumbbell`` in
    ``tests/test_csf.py`` checks it against this.
    """
    return _dumbbell("cdumbbell", m, l, n)


def csf_semicomplete_dumbbell_closed(m: int, l: int, n: int) -> SymFunc:
    """X of the cycle-clique dumbbell by eliminating the cycle side:

        X = (m-1) X_{L_{n,m+l}} - sum_{k=1}^{m-2} X_{L_{n,l+k}} X_{C_{m-k}},

    the same unrolled triple-deletion that expands the two-cycle dumbbell into
    tadpoles, with the far side a lollipop instead.
    """
    return _dumbbell("sdumbbell", m, l, n)


# -------------------------------------------------------- chromatic polynomials


class ChromPoly:
    """Integer polynomial stored densely, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        given = list(coeffs) or [0]  # no coefficients: the zero polynomial
        cs = list(map(int, given))
        if cs != given:
            raise ValueError(f"chromatic polynomial coefficients must be integers, got {given}")
        self.coeffs = ChromPoly._trusted(cs).coeffs

    @classmethod
    def _trusted(cls, cs: list) -> "ChromPoly":
        """Unchecked: ``cs`` is a list of ints, taken over.  Trailing zeros are dropped."""
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        out = object.__new__(cls)
        out.coeffs = tuple(cs)
        return out

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other):
        if not isinstance(other, ChromPoly):
            return NotImplemented
        return ChromPoly._trusted([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other):
        if not isinstance(other, ChromPoly):
            return NotImplemented
        return ChromPoly._trusted([a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other):
        if isinstance(other, int):
            return ChromPoly._trusted([c * other for c in self.coeffs])
        if not isinstance(other, ChromPoly):
            return NotImplemented
        b = other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, a in enumerate(self.coeffs):  # a row of the product: a x^i times other
            if a:
                j = i + len(b)
                out[i:j] = [o + a * c for o, c in zip(out[i:j], b)]
        return ChromPoly._trusted(out)

    __rmul__ = __mul__

    def shift_divide(self) -> "ChromPoly":
        """Exact division by x; raises if the constant term is nonzero."""
        if self.coeffs[0] != 0:
            raise ArithmeticError("polynomial not divisible by x")
        return ChromPoly._trusted(list(self.coeffs[1:]) or [0])

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


@lru_cache(maxsize=None)
def _xm1_power(k: int) -> ChromPoly:
    """(x-1)^k, from (x-1)^{k-1}."""
    return ChromPoly((1,)) if k == 0 else _xm1_power(k - 1) * _XM1


@lru_cache(maxsize=None)
def _tree(k: int) -> ChromPoly:
    """x (x-1)^k, the chromatic polynomial of a tree with k edges."""
    return ChromPoly._trusted([0, *_xm1_power(k).coeffs])


@lru_cache(maxsize=None)
def _falling(k: int) -> ChromPoly:
    """x (x-1) ... (x-k+1), the chromatic polynomial of K_k, from k-1."""
    return ChromPoly((1,)) if k == 0 else _falling(k - 1) * ChromPoly._trusted([1 - k, 1])


def _close_chromatic(edges):
    """Trees close to x (x-1)^{|E|} and complete states to a falling factorial.

    ``edges`` must be connected: the test for a tree is |E| = |V| - 1, which a
    triangle beside a disjoint edge passes too.
    """
    k = len({x for e in edges for x in e})
    if len(edges) == k - 1:
        return _tree(k - 1)
    if 2 * len(edges) == k * (k - 1):
        return _falling(k)
    return None


def _block_product(g: Graph, evaluate) -> ChromPoly:
    """P(G) = x^{n - sum_B (|V(B)|-1)} prod_B P(B)/x over the 2-connected blocks B.

    The blocks come from ``_biconnected`` on the plain vertices of ``g``.  The
    bridges give one row, (x-1)^{bridges}, a clique block closes by
    ``_close_chromatic``, and any other block gets P(B) = ``evaluate(key)``,
    where ``key`` is the sorted tuple of B's edges with its vertices renumbered
    0..k-1 in sorted order, so isomorphic copies numbered alike share one key.
    Guarded at ``DEFAULT_ENUMERATION_CAP`` vertices before the split and at
    ``DEFAULT_CHROMPOLY_EDGE_CAP`` edges in each block handed to ``evaluate``.
    """
    _guard("chromatic polynomial", g.n)
    exponent, bridges = g.n, 0
    out = ChromPoly._trusted([1])
    for blocks in _biconnected(g.edge_list):
        for block in blocks:
            if len(block) == 1:
                bridges += 1
                exponent -= 1
                continue
            vertices = sorted({x for e in block for x in e})
            exponent -= len(vertices) - 1
            poly = _close_chromatic(block)
            if poly is None:
                _guard("chromatic recursion", len(block), DEFAULT_CHROMPOLY_EDGE_CAP, "edges in one block")
                index = {v: i for i, v in enumerate(vertices)}
                poly = evaluate(tuple(sorted((index[a], index[b]) for a, b in block)))
            out = out * poly.shift_divide()
    return ChromPoly._trusted([0] * exponent + list((out * _xm1_power(bridges)).coeffs))


@lru_cache(maxsize=1024)
def _dc_block(block: tuple) -> ChromPoly:
    """P(B) by the deletion-contraction kernel on the renumbered block's
    edges, run once per block (see ``_block_product``): this route's own
    memo, never filled by the subset DP."""
    return _deletion_contraction(block, lambda _: _X, _close_chromatic)


@lru_cache(maxsize=1024)
def _subsets_block(block: tuple) -> ChromPoly:
    """P(B) by ``_subset_counts`` without sizes on the renumbered block, whose
    vertices are 0..k-1, run once per block (see ``_block_product``): this
    route's own memo, never filled by the kernel."""
    n = 1 + max(b for _, b in block)
    coeffs = [0] * (n + 1)
    for k, c in _subset_counts(n, block, sizes=False).items():
        coeffs[k] = c
    return ChromPoly._trusted(coeffs)


def chromatic_poly_dc(g: Graph) -> ChromPoly:
    """Chromatic polynomial by blocks and deletion-contraction.

    ``_block_product`` closes the bridge and clique blocks, and every other
    block runs through the deletion-contraction kernel, where trees and
    complete states close in one step and other states branch on a
    non-bridge edge.  This is the second route that checks ``compute_chromatic``
    and the closed forms.  Guarded at ``DEFAULT_ENUMERATION_CAP`` vertices and
    at ``DEFAULT_CHROMPOLY_EDGE_CAP`` edges in each block it evaluates.
    """
    return _block_product(g, _dc_block)


@lru_cache(maxsize=None)
def _cycle_chromatic(n: int) -> ChromPoly:
    """(x-1)^n + (-1)^n (x-1), the chromatic polynomial of C_n."""
    return _xm1_power(n) + (-1) ** n * _XM1


def _closed_chromatic(spec: GraphSpec):
    """The closed chromatic polynomial of a checked spec, or None if its family has none:
    the block product x prod_B P(B)/x (x-1)^{bridges} over its bodies B, with
    sum(rays) bridges in a sun and l + 1 in a dumbbell D(m, l, n)."""
    fam, a = spec.family, spec.args
    if fam == "sun":
        bodies, bridges = (("cycle", a[0]),), sum(a[1])
    elif fam in _DUMBBELL_BODIES:
        bodies, bridges = zip(_DUMBBELL_BODIES[fam], a[::2]), a[1] + 1
    else:
        return None
    out = _tree(bridges)
    for body, size in bodies:
        out = out * (_cycle_chromatic if body == "cycle" else _falling)(size).shift_divide()
    return out


def chromatic_poly_closed(spec) -> ChromPoly:
    """Closed-form chromatic polynomial for suns and the three dumbbell kinds,
    guarded at ``DEFAULT_ENUMERATION_CAP`` vertices.  A built ``Graph`` names
    no family and is refused."""
    spec = as_spec(spec)
    if spec is None:
        raise ValueError("a closed chromatic polynomial needs a family spec (a GraphSpec or spec string)")
    _guard("chromatic polynomial", spec.check())
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
    "spider": csf_spider_closed,
    "sun": _sun3_closed,
    "csun": _sun3_closed,
    "dumbbell": csf_dumbbell_closed,
    "cdumbbell": csf_complete_dumbbell_closed,
    "sdumbbell": csf_semicomplete_dumbbell_closed,
}


def closed_csf_for(spec: GraphSpec):
    """The closed-form e-basis CSF of the spec, or None if no form answers it."""
    fn = _CLOSED_FORMS.get(spec.family)
    return None if fn is None else fn(*spec.args)


def compute_csf(target):
    """Compute X_G in the elementary basis; returns (SymFunc, engine_used).

    ``target`` may be a Graph, GraphSpec or spec string.  A spec that a closed
    form answers returns it ("closed"); any other spec is built once,
    as its isomorphic ``spec.canonical()``, within the subset oracle's vertex
    bound.  A ``Graph`` never meets a closed form: it goes to the subset
    expansion ("subsets"), whose count-key table goes to the e basis by
    ``p_to_e``'s own route, ``symfunc._newton``, with no ``SymFunc`` built
    between.  So ``compute_csf(spec.build())`` is independent of the family
    formulas.
    """
    spec = as_spec(target)
    if spec is not None:
        n = spec.check()
        closed = closed_csf_for(spec)
        if closed is not None:
            return closed, "closed"
        _guard("subset oracle", n)
        target = spec.canonical().build()
    return _newton(_oracle_table(target), target.n, Basis.E), "subsets"


def csf_degree(target) -> int:
    """|V|, the degree of X_G, without a CSF engine: a spec's argument rule
    returns it (``GraphSpec.check``), so no spec is built or expanded.  A
    ``line`` chain sure to pass ``DEFAULT_ENUMERATION_CAP`` vertices gives a
    lower bound over it instead, which every guard refuses."""
    spec = as_spec(target)
    return target.n if spec is None else spec.check()


def compute_chromatic(target):
    """Chromatic polynomial of a Graph, GraphSpec or spec string; returns
    (ChromPoly, engine_used).  A family with a closed form uses it ("closed").
    Any other graph goes to ``_block_product``, which closes its bridge and
    clique blocks and sends every other block to ``_subset_counts`` without
    sizes ("subsets"); ``chromatic_poly_dc``, the second route, checks the
    closed forms in ``verify chromatic-closed-forms`` and the tests.  Both
    routes are guarded at ``DEFAULT_ENUMERATION_CAP`` vertices, checked before
    either runs, and at ``DEFAULT_CHROMPOLY_EDGE_CAP`` edges in a block they evaluate.
    """
    spec = as_spec(target)
    _guard("chromatic polynomial", csf_degree(spec or target))
    if spec is not None:
        closed = _closed_chromatic(spec)
        if closed is not None:
            return closed, "closed"
        target = spec.build()
    return _block_product(target, _subsets_block), "subsets"
