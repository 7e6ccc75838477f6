"""Simple graphs, vertex-weighted multigraphs, family builders and the spec grammar.

Vertex numbering conventions (documented per builder, and relied on by tests):
bodies come first, then attachments in declaration order.  All graphs are
undirected; ``Graph`` is immutable and hashable so computed invariants can be
cached per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import Partition


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

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)

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


class WeightedMultigraph:
    """Vertex-weighted multigraph: weights per vertex, edge list may repeat and loop.

    This is the state object of the contraction recursion: contracting an edge
    adds the endpoint weights, so a vertex of weight w stands for a contracted
    connected clump of w original vertices.
    """

    __slots__ = ("weights", "edges")

    def __init__(self, weights, edges=()):
        self.weights = tuple(int(w) for w in weights)
        if any(w < 1 for w in self.weights):
            raise ValueError("vertex weights must be positive")
        n = len(self.weights)
        es = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            es.append((u, v) if u <= v else (v, u))
        self.edges = tuple(sorted(es))

    @classmethod
    def from_graph(cls, g: Graph) -> "WeightedMultigraph":
        return cls((1,) * g.n, g.edge_list)

    @property
    def total_weight(self):
        return sum(self.weights)

    def __repr__(self):
        return f"WeightedMultigraph({list(self.weights)}, {list(self.edges)})"


# ------------------------------------------------------------------ builders


def path_graph(n: int) -> Graph:
    """Path on n >= 1 vertices 0..n-1, edges (i, i+1)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices 0..n-1 (consecutive plus the wrap edge)."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def spider_graph(legs) -> Graph:
    """Spider: center vertex 0, legs laid out consecutively in declaration order.

    Leg i of length L contributes a path of L vertices; the center is adjacent
    to the first vertex of each leg (a leaf of that path).
    """
    legs = tuple(int(x) for x in legs)
    if not legs or any(x < 1 for x in legs):
        raise ValueError("spider legs must be positive")
    edges = []
    nxt = 1
    for leg in legs:
        edges.append((0, nxt))
        for i in range(leg - 1):
            edges.append((nxt + i, nxt + i + 1))
        nxt += leg
    return Graph(nxt, edges)


def _check_sun_args(n: int, rays: tuple) -> None:
    if n < 3:
        raise ValueError("sun body needs at least three vertices")
    if len(rays) != n:
        raise ValueError(f"expected {n} ray lengths, got {len(rays)}")
    if any(r < 1 for r in rays):
        raise ValueError("ray lengths must be positive")


def sun_graph(n: int, rays, body: str = "cycle") -> Graph:
    """Sun: body on vertices 0..n-1, then ray paths in declaration order.

    Body vertices carry a cycle (``body="cycle"``) or a complete graph
    (``body="complete"``).  Ray i (length rays[i] >= 1) is a path whose first
    vertex is joined to body vertex i.  Ray order matters: rearranging rays
    can change the isomorphism type.  Vertex count n + sum(rays); edge count
    body edges + sum(rays).
    """
    rays = tuple(int(x) for x in rays)
    _check_sun_args(n, rays)
    if body == "cycle":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif body == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        raise ValueError(f"unknown sun body {body!r}")
    nxt = n
    for i, r in enumerate(rays):
        edges.append((i, nxt))
        for k in range(r - 1):
            edges.append((nxt + k, nxt + k + 1))
        nxt += r
    return Graph(nxt, edges)


def tadpole_graph(m: int, l: int) -> Graph:
    """Cycle C_m (vertices 0..m-1) with a pendant path of l vertices at vertex 0.

    l = 0 gives the bare cycle.  Edge count m + l.
    """
    if m < 3:
        raise ValueError("tadpole cycle needs m >= 3")
    if l < 0:
        raise ValueError("tail length must be nonnegative")
    edges = [(i, (i + 1) % m) for i in range(m)]
    if l:
        edges.append((0, m))
        for k in range(l - 1):
            edges.append((m + k, m + k + 1))
    return Graph(m + l, edges)


def lollipop_graph(m: int, l: int) -> Graph:
    """Complete graph K_m (vertices 0..m-1) with a pendant path of l vertices at 0."""
    if m < 3:
        raise ValueError("lollipop clique needs m >= 3")
    if l < 0:
        raise ValueError("tail length must be nonnegative")
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if l:
        edges.append((0, m))
        for k in range(l - 1):
            edges.append((m + k, m + k + 1))
    return Graph(m + l, edges)


def _body_edges(kind: str, verts) -> list:
    """Cycle or clique edges over an explicit vertex id list."""
    k = len(verts)
    if kind == "cycle":
        return [(verts[i], verts[(i + 1) % k]) for i in range(k)]
    return [(verts[i], verts[j]) for i in range(k) for j in range(i + 1, k)]


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
    if m < 3 or n < 3:
        raise ValueError("dumbbell bodies need at least three vertices each")
    if l < -1:
        raise ValueError("connector length must be at least -1")
    if kind not in ("ordinary", "complete", "semicomplete"):
        raise ValueError(f"unknown dumbbell kind {kind!r}")
    first = "cycle" if kind in ("ordinary", "semicomplete") else "complete"
    second = "cycle" if kind == "ordinary" else "complete"
    edges = _body_edges(first, list(range(m)))
    if l >= 1:
        path = list(range(m, m + l))
        edges.append((0, path[0]))
        edges.extend((path[i], path[i + 1]) for i in range(l - 1))
        body2 = list(range(m + l, m + l + n))
        edges.append((path[-1], body2[0]))
        total = m + l + n
    elif l == 0:
        body2 = list(range(m, m + n))
        edges.append((0, body2[0]))
        total = m + n
    else:  # shared vertex
        body2 = [0] + list(range(m, m + n - 1))
        total = m + n - 1
    edges.extend(_body_edges(second, body2))
    return Graph(total, edges)


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge of g (in sorted edge order), adjacency = sharing an endpoint."""
    es = g.edge_list
    idx = {e: i for i, e in enumerate(es)}
    out = []
    for i, (u, v) in enumerate(es):
        for j in range(i + 1, len(es)):
            a, b = es[j]
            if a in (u, v) or b in (u, v):
                out.append((i, j))
    return Graph(len(es), out)


def attach(body: Graph, attachments) -> Graph:
    """Join disjoint graphs to distinct body vertices by single edges.

    ``attachments`` is a sequence of (body_vertex, graph, graph_vertex); each
    listed body vertex may appear once.  The attached graphs are shifted after
    the body in declaration order.
    """
    used = set()
    edges = list(body.edge_list)
    offset = body.n
    for bv, g, gv in attachments:
        if not (0 <= bv < body.n):
            raise ValueError(f"body vertex {bv} out of range")
        if bv in used:
            raise ValueError(f"body vertex {bv} used twice")
        used.add(bv)
        if not (0 <= gv < g.n):
            raise ValueError(f"attachment vertex {gv} out of range")
        edges.extend((a + offset, b + offset) for a, b in g.edge_list)
        edges.append((bv, gv + offset))
        offset += g.n
    return Graph(offset, edges)


def add_complete(g: Graph, anchor: int, m: int) -> Graph:
    """Glue a K_m onto ``g`` sharing only the vertex ``anchor`` (m-1 new vertices)."""
    if not (0 <= anchor < g.n):
        raise ValueError(f"anchor vertex {anchor} out of range")
    if m < 2:
        raise ValueError("glued clique needs at least two vertices")
    clique = [anchor] + list(range(g.n, g.n + m - 1))
    edges = list(g.edge_list) + _body_edges("complete", clique)
    return Graph(g.n + m - 1, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edge_list)
    edges.extend((u + a.n, v + a.n) for u, v in b.edge_list)
    return Graph(a.n + b.n, edges)


def edge_subset_type(g: Graph, subset) -> Partition:
    """Component-size partition of the spanning subgraph (V, subset)."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in subset:
        e = (u, v) if u < v else (v, u)
        if e not in g.edges:
            raise ValueError(f"edge {e} not in graph")
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    sizes = {}
    for x in range(g.n):
        r = find(x)
        sizes[r] = sizes.get(r, 0) + 1
    return Partition(sizes.values())


# -------------------------------------------------------------- spec grammar

_FAMILIES = {
    "path": 1,
    "cycle": 1,
    "complete": 1,
    "tadpole": 2,
    "lollipop": 2,
    "dumbbell": 3,
    "cdumbbell": 3,
    "sdumbbell": 3,
}


@dataclass(frozen=True)
class GraphSpec:
    """Parsed graph description: a family name plus arguments.

    ``args`` holds ints for the simple families, ``(n, rays)`` for suns,
    nested GraphSpecs for ``line``/``union`` and ``(d, edge tuple)`` for
    explicit edge lists.
    """

    family: str
    args: tuple

    def build(self) -> Graph:
        f, a = self.family, self.args
        if f == "path":
            return path_graph(*a)
        if f == "cycle":
            return cycle_graph(*a)
        if f == "complete":
            return complete_graph(*a)
        if f == "spider":
            return spider_graph(a)
        if f == "sun":
            return sun_graph(a[0], a[1], body="cycle")
        if f == "csun":
            return sun_graph(a[0], a[1], body="complete")
        if f == "tadpole":
            return tadpole_graph(*a)
        if f == "lollipop":
            return lollipop_graph(*a)
        if f == "dumbbell":
            return dumbbell_graph(*a, kind="ordinary")
        if f == "cdumbbell":
            return dumbbell_graph(*a, kind="complete")
        if f == "sdumbbell":
            return dumbbell_graph(*a, kind="semicomplete")
        if f == "line":
            return line_graph(a[0].build())
        if f == "union":
            return disjoint_union(a[0].build(), a[1].build())
        if f == "edges":
            return Graph(a[0], a[1])
        raise ValueError(f"unknown family {f!r}")

    def __str__(self):
        f, a = self.family, self.args
        if f in ("sun", "csun"):
            return f"{f}({a[0]};{','.join(str(x) for x in a[1])})"
        if f == "spider":
            return f"spider({','.join(str(x) for x in a)})"
        if f == "line":
            return f"line({a[0]})"
        if f == "union":
            return f"union({a[0]},{a[1]})"
        if f == "edges":
            pairs = ",".join(f"({u},{v})" for u, v in a[1])
            return f"edges[{a[0]}:{pairs}]"
        return f"{f}({','.join(str(x) for x in a)})"


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
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
        if fam == "line":
            self.expect("(")
            inner = self.spec(depth + 1)
            self.expect(")")
            return GraphSpec("line", (inner,))
        if fam == "union":
            self.expect("(")
            a = self.spec(depth + 1)
            self.expect(",")
            b = self.spec(depth + 1)
            self.expect(")")
            return GraphSpec("union", (a, b))
        if fam in ("sun", "csun"):
            self.expect("(")
            n = self.integer()
            self.expect(";")
            rays = self.int_list(")")
            return GraphSpec(fam, (n, tuple(rays)))
        if fam == "spider":
            self.expect("(")
            legs = self.int_list(")")
            return GraphSpec("spider", tuple(legs))
        if fam in _FAMILIES:
            self.expect("(")
            vals = self.int_list(")")
            if len(vals) != _FAMILIES[fam]:
                self.error(f"{fam} takes {_FAMILIES[fam]} argument(s), got {len(vals)}")
            return GraphSpec(fam, tuple(vals))
        self.error(f"unknown family {fam!r}")


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


@lru_cache(maxsize=None)
def build_spec(text: str) -> Graph:
    """Parse and build in one step (cached on the exact text)."""
    return parse_graph_spec(text).build()
