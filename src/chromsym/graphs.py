"""Simple graphs, family builders and the spec grammar.

Vertex numbering conventions (documented per builder, and relied on by tests):
bodies come first, then attachments in declaration order.  All graphs are
undirected; ``Graph`` is immutable and hashable so computed invariants can be
cached per graph.

Each family's argument rule is written once, as the ``_check_*_args``
function its builder runs, and returns |V|.  Each rule checks its sizes by
``_check_sizes``, which refuses a non-integer, so no builder truncates one:
paths, cycles and complete graphs bind it, and tadpoles and lollipops share
one rule.
``_FAMILY_TABLE`` gives each family of the spec grammar its arity, rule and
builder; ``GraphSpec.check`` runs the rule, and every other module checks
arguments and reads |V| for its vertex bounds through it, before any build.
A ``line`` chain stops building its levels once |V| is sure to pass
``DEFAULT_ENUMERATION_CAP``, and then gives a lower bound over it
(``_line_order``).
``GraphSpec.canonical`` names one spec per isomorphism class that the
builders' symmetries give, so a CSF engine computes each class once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import combinations
from math import comb

from .partitions import DEFAULT_ENUMERATION_CAP


class SpecParseError(ValueError):
    """Raised for malformed graph-spec strings; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "edges", "_hash")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed in a simple graph")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            es.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(es)
        self._hash = hash((n, self.edges))

    @property
    def edge_list(self):
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return sorted(self.edges)

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v in self.edge_list:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def components(self):
        """Vertex sets of connected components, each sorted, ordered by minimum."""
        adj = self.adjacency()
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self):
        return self.n <= 1 or len(self.components()) == 1

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({self.n}, {self.edge_list})"


# ------------------------------------------------------------------ builders


def _body_edges(kind: str, verts) -> list:
    """Cycle or clique edges over a sequence of vertex ids, in that order."""
    k = len(verts)
    if kind == "cycle":
        return [(verts[i], verts[(i + 1) % k]) for i in range(k)]
    return [(verts[i], verts[j]) for i in range(k) for j in range(i + 1, k)]


def _pendant_path(edges: list, anchor: int, start: int, length: int) -> int:
    """Append a path on vertices start..start+length-1 whose first vertex is
    joined to ``anchor``; returns the next free vertex.  Length 0 adds nothing."""
    if length:
        edges.append((anchor, start))
        edges.extend((v, v + 1) for v in range(start, start + length - 1))
    return start + length


def _check_sizes(least: int, message: str, *sizes) -> int:
    """The size check of every family rule: each size is an int (a bool is
    one) and at least ``least``, else ``message``; returns their sum."""
    for x in sizes:
        if not isinstance(x, int):
            raise ValueError(f"arguments must be integers, got {x!r}")
        if x < least:
            raise ValueError(message)
    return sum(sizes)


_check_path_args = partial(_check_sizes, 1, "path needs at least one vertex")
_check_cycle_args = partial(_check_sizes, 3, "cycle needs at least three vertices")
_check_complete_args = partial(_check_sizes, 1, "complete graph needs at least one vertex")


def path_graph(n: int) -> Graph:
    """Path on n >= 1 vertices 0..n-1, edges (i, i+1)."""
    _check_path_args(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices 0..n-1 (consecutive plus the wrap edge)."""
    _check_cycle_args(n)
    return Graph(n, _body_edges("cycle", range(n)))


def complete_graph(n: int) -> Graph:
    """Complete graph K_n on n >= 1 vertices 0..n-1."""
    _check_complete_args(n)
    return Graph(n, _body_edges("complete", range(n)))


def _check_spider_args(*legs) -> int:
    message = "spider legs must be positive"
    if not legs:
        raise ValueError(message)
    return 1 + _check_sizes(1, message, *legs)


def spider_graph(legs) -> Graph:
    """Spider: center vertex 0, legs laid out consecutively in declaration order.

    Leg i of length L contributes a path of L vertices; the center is adjacent
    to the first vertex of each leg (a leaf of that path).
    """
    legs = tuple(legs)
    _check_spider_args(*legs)
    edges = []
    nxt = 1
    for leg in legs:
        nxt = _pendant_path(edges, 0, nxt, leg)
    return Graph(nxt, edges)


def _check_sun_args(n: int, rays: tuple) -> int:
    _check_sizes(3, "sun body needs at least three vertices", n)
    if len(rays) != n:
        raise ValueError(f"expected {n} ray lengths, got {len(rays)}")
    return n + _check_sizes(1, "ray lengths must be positive", *rays)


def sun_graph(n: int, rays, body: str = "cycle") -> Graph:
    """Sun: body on vertices 0..n-1, then ray paths in declaration order.

    Body vertices carry a cycle (``body="cycle"``) or a complete graph
    (``body="complete"``).  Ray i (length rays[i] >= 1) is a path whose first
    vertex is joined to body vertex i.  Ray order matters: rearranging rays
    can change the isomorphism type.  Vertex count n + sum(rays); edge count
    body edges + sum(rays).
    """
    rays = tuple(rays)
    _check_sun_args(n, rays)
    if body not in ("cycle", "complete"):
        raise ValueError(f"unknown sun body {body!r}")
    edges = _body_edges(body, range(n))
    nxt = n
    for i, r in enumerate(rays):
        nxt = _pendant_path(edges, i, nxt, r)
    return Graph(nxt, edges)


def _check_tailed_args(body: str, m: int, l: int) -> int:
    """The tadpole and lollipop rule; ``body`` names the body in its first message."""
    _check_sizes(3, f"{body} needs m >= 3", m)
    return m + _check_sizes(0, "tail length must be nonnegative", l)


def tadpole_graph(m: int, l: int) -> Graph:
    """Cycle C_m (vertices 0..m-1) with a pendant path of l vertices at vertex 0.

    l = 0 gives the bare cycle.  Edge count m + l.
    """
    _check_tailed_args("tadpole cycle", m, l)
    edges = _body_edges("cycle", range(m))
    return Graph(_pendant_path(edges, 0, m, l), edges)


def lollipop_graph(m: int, l: int) -> Graph:
    """Complete graph K_m (vertices 0..m-1) with a pendant path of l vertices at 0."""
    _check_tailed_args("lollipop clique", m, l)
    edges = _body_edges("complete", range(m))
    return Graph(_pendant_path(edges, 0, m, l), edges)


def _check_dumbbell_args(m: int, l: int, n: int) -> int:
    _check_sizes(3, "dumbbell bodies need at least three vertices each", m, n)
    return m + n + _check_sizes(-1, "connector length must be at least -1", l)


def dumbbell_graph(m: int, l: int, n: int, kind: str = "ordinary") -> Graph:
    """Two bodies joined through a path of l vertices.

    * ``kind="ordinary"``: cycle C_m and cycle C_n,
    * ``kind="complete"``: clique K_m and clique K_n,
    * ``kind="semicomplete"``: cycle C_m and clique K_n.

    Vertex layout: first body 0..m-1, then the l path vertices, then the second
    body.  l >= 1 joins body vertex 0 to the path head and the path tail to the
    second body's first vertex (for l = 1 the single path vertex is adjacent to
    both bodies); l = 0 joins the two bodies directly by an edge; l = -1 makes
    the bodies share vertex 0, giving m + n - 1 vertices in total.
    """
    _check_dumbbell_args(m, l, n)
    if kind not in ("ordinary", "complete", "semicomplete"):
        raise ValueError(f"unknown dumbbell kind {kind!r}")
    first = "cycle" if kind in ("ordinary", "semicomplete") else "complete"
    second = "cycle" if kind == "ordinary" else "complete"
    edges = _body_edges(first, range(m))
    if l >= 0:
        # a pendant path of l + 1 vertices whose last is the second body's first
        head = _pendant_path(edges, 0, m, l + 1) - 1
        body2 = range(head, head + n)
    else:  # shared vertex
        body2 = [0] + list(range(m, m + n - 1))
    edges.extend(_body_edges(second, body2))
    return Graph(m + l + n, edges)


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge of g (in sorted edge order), adjacency = sharing an endpoint."""
    at = {}
    for i, (u, v) in enumerate(g.edge_list):
        at.setdefault(u, []).append(i)
        at.setdefault(v, []).append(i)
    return Graph(len(g.edges), [pair for ids in at.values() for pair in combinations(ids, 2)])


def _two_core(g: Graph):
    """The edges of the 2-core of g, what is left once vertices of degree 1 or
    less are removed while there are any, and each vertex's degree in it."""
    adj = g.adjacency()
    deg = [len(nbrs) for nbrs in adj]
    gone = [False] * g.n
    loose = [v for v in range(g.n) if deg[v] < 2]
    while loose:
        v = loose.pop()
        if not gone[v]:
            gone[v] = True
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] < 2:
                    loose.append(u)
    return [(u, v) for u, v in g.edge_list if not (gone[u] or gone[v])], deg


def _line_order(inner, lines=1) -> int:
    """|V| of L^lines(G), G = ``inner``: |V(L(G))| = |E(G)|, and for more
    levels, with G = L^j(B) over a base B that is no line spec, that is
    sum_v C(deg(v), 2) over L^{lines + j - 2}(B), as two edges of a simple
    graph share at most one end: only the levels below the top two are built.
    A line graph of a disjoint union is the union of the line graphs, so a
    ``union`` base counts each part under the same levels.

    The walk up from B stops before it builds L(X) when the 2-core C of X has
    more than ``DEFAULT_ENUMERATION_CAP`` edges.  L^k is monotone under
    subgraphs, so L^k(X) holds L^k(C).  L(C) has |E(C)| vertices and least
    degree d >= 2, the least deg u + deg v - 2 over the edges uv of C; a graph
    of n vertices and least degree d has at least dn/2 >= n edges, and its
    line graph least degree at least 2d - 2 >= 2.  Those bounds, carried to
    the top, are returned in place of |V|: a lower bound over the cap, which
    every guard refuses, exact when X is regular.  A pendant path, which
    keeps the least degree of X at 1 on every level, is no part of C.

    Every base family but ``edges`` is connected, and the line graph of a
    connected graph on N vertices is connected on at least N - 1, so B is not
    built when |V(B)| - lines already passes the cap: that is the bound then.
    An ``edges`` base is relabelled onto the ends of its edges before any
    count, so its isolated vertices cost nothing.
    """
    base = inner
    while base.family == "line":
        base._entry()  # the arity check that building runs first
        lines, base = lines + 1, base.args[0]
    if base.family == "union":
        base._entry()
        return sum(_line_order(part, lines) for part in base.args)
    if base.family != "edges" and base.check() - lines > DEFAULT_ENUMERATION_CAP:
        return base.check() - lines
    g = base.build()
    if base.family == "edges":  # isolated vertices add nothing to L(g)
        at = {v: i for i, v in enumerate(sorted({v for e in g.edges for v in e}))}
        g = Graph(len(at), [(at[u], at[v]) for u, v in g.edges])
    if lines == 1:
        return len(g.edges)
    for above in range(lines - 1, 1, -1):  # L(g) is ``above`` levels below the top
        core, deg = _two_core(g)
        if len(core) > DEFAULT_ENUMERATION_CAP:
            n, least = len(core), min(deg[u] + deg[v] for u, v in core) - 2
            for _ in range(above):
                n, least = -(-n * least // 2), 2 * least - 2
            return n
        g = line_graph(g)
    return sum(comb(len(nbrs), 2) for nbrs in g.adjacency())


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edge_list)
    edges.extend((u + a.n, v + a.n) for u, v in b.edge_list)
    return Graph(a.n + b.n, edges)


# -------------------------------------------------------------- spec grammar

class GraphSpec(namedtuple("GraphSpec", "family args")):
    """Parsed graph description: a family name plus arguments.

    ``args`` holds ints for the simple families, ``(n, rays)`` for suns,
    nested GraphSpecs for ``line``/``union`` and ``(d, edge tuple)`` for
    explicit edge lists.
    """

    __slots__ = ()

    def _entry(self):
        """The family's table entry, once the argument count is right."""
        if self.family not in _FAMILY_TABLE:
            raise ValueError(f"unknown family {self.family!r}")
        arity, rule, builder = _FAMILY_TABLE[self.family]
        if arity is not None and len(self.args) != arity:
            raise ValueError(f"{self.family} takes {arity} argument(s), got {len(self.args)}")
        return rule, builder

    def check(self) -> int:
        """Raise ``ValueError`` exactly when ``build`` would, else return |V|.
        Builds only the levels below the top two of each ``line(...)`` chain,
        and stops once |V| is sure to pass ``DEFAULT_ENUMERATION_CAP``, to
        return a lower bound over it instead (see ``_line_order``)."""
        rule, _ = self._entry()
        return rule(*self.args)

    def build(self) -> Graph:
        _, builder = self._entry()
        return builder(*self.args)

    def canonical(self) -> "GraphSpec":
        """One labelled representative of the isomorphisms the builders guarantee.

        A dumbbell or complete dumbbell puts its larger body first, a sun
        takes the lexicographically largest of its rays' rotations and
        reflections, a complete sun its rays in decreasing order and a spider
        its legs in increasing order; every other family returns the spec.
        Equal results are isomorphic graphs, and of the labellings measured,
        each choice is the one on which the subset DP, leaf neighbours
        first, does the least work.  Run it on a checked spec only.
        """
        f, a = self.family, self.args
        if f in ("dumbbell", "cdumbbell"):
            return GraphSpec(f, (max(a[0], a[2]), a[1], min(a[0], a[2])))
        if f == "sun":
            rays = tuple(a[1])
            return GraphSpec(f, (a[0], max(r[i:] + r[:i] for r in (rays, rays[::-1]) for i in range(len(r)))))
        if f == "csun":
            return GraphSpec(f, (a[0], tuple(sorted(a[1], reverse=True))))
        if f == "spider":
            return GraphSpec(f, tuple(sorted(a)))
        return self

    def __str__(self):
        f, a = self.family, self.args
        if f in ("sun", "csun"):
            return f"{f}({a[0]};{','.join(str(x) for x in a[1])})"
        if f == "edges":
            pairs = ",".join(f"({u},{v})" for u, v in a[1])
            return f"edges[{a[0]}:{pairs}]"
        return f"{f}({','.join(str(x) for x in a)})"


#: family -> (argument count or None for any, rule returning |V|, builder);
#: both take the spec's arguments unpacked.
_FAMILY_TABLE = {
    "path": (1, _check_path_args, path_graph),
    "cycle": (1, _check_cycle_args, cycle_graph),
    "complete": (1, _check_complete_args, complete_graph),
    "spider": (None, _check_spider_args, lambda *legs: spider_graph(legs)),
    "sun": (2, _check_sun_args, sun_graph),
    "csun": (2, _check_sun_args, partial(sun_graph, body="complete")),
    "tadpole": (2, partial(_check_tailed_args, "tadpole cycle"), tadpole_graph),
    "lollipop": (2, partial(_check_tailed_args, "lollipop clique"), lollipop_graph),
    "dumbbell": (3, _check_dumbbell_args, dumbbell_graph),
    "cdumbbell": (3, _check_dumbbell_args, partial(dumbbell_graph, kind="complete")),
    "sdumbbell": (3, _check_dumbbell_args, partial(dumbbell_graph, kind="semicomplete")),
    "line": (1, _line_order, lambda inner: line_graph(inner.build())),
    "union": (2, lambda a, b: a.check() + b.check(), lambda a, b: disjoint_union(a.build(), b.build())),
    "edges": (2, lambda d, pairs: Graph(d, pairs).n, Graph),
}


#: deepest nesting of ``line(...)`` and ``union(...)`` that a spec may use
MAX_SPEC_DEPTH = 100


class _SpecParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise SpecParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            self.error("expected a family name")
        return self.text[start:self.pos]

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":  # ASCII digits only
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def int_list(self, terminator):
        vals = [self.integer()]
        while self.peek() == ",":
            self.expect(",")
            vals.append(self.integer())
        self.expect(terminator)
        return vals

    def spec(self, depth=0) -> GraphSpec:
        if depth > MAX_SPEC_DEPTH:
            self.error(f"spec nested deeper than {MAX_SPEC_DEPTH} levels")
        fam = self.name()
        if fam not in _FAMILY_TABLE:
            self.error(f"unknown family {fam!r}")
        if fam == "edges":
            self.expect("[")
            d = self.integer()
            self.expect(":")
            pairs = []
            while self.peek() == "(":
                self.expect("(")
                u = self.integer()
                self.expect(",")
                v = self.integer()
                self.expect(")")
                pairs.append((u, v))
                if self.peek() == ",":
                    self.expect(",")
                else:
                    break
            self.expect("]")
            return GraphSpec("edges", (d, tuple(pairs)))
        self.expect("(")
        arity = _FAMILY_TABLE[fam][0]
        if fam in ("line", "union"):
            args = [self.spec(depth + 1)]
            while len(args) < arity:
                self.expect(",")
                args.append(self.spec(depth + 1))
            self.expect(")")
        elif fam in ("sun", "csun"):
            n = self.integer()
            self.expect(";")
            args = (n, tuple(self.int_list(")")))
        else:
            args = self.int_list(")")
            if arity is not None and len(args) != arity:
                self.error(f"{fam} takes {arity} argument(s), got {len(args)}")
        return GraphSpec(fam, tuple(args))


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse a graph description like ``sun(3;1,1,1)`` or ``line(spider(2,2,2))``.

    Whitespace-insensitive; raises ``SpecParseError`` with the character
    position on malformed input.
    """
    p = _SpecParser(text)
    out = p.spec()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input after spec")
    return out


def as_spec(target):
    """The spec ``target`` names: a str is parsed, a GraphSpec is returned as
    is, and anything else (a ``Graph``) gives None."""
    if isinstance(target, str):
        return parse_graph_spec(target)
    if isinstance(target, GraphSpec):
        return target
    return None
