"""Simple graphs, family builders and the spec grammar.

Vertex numbering conventions (documented per builder, and relied on by tests):
bodies come first, then attachments in declaration order.  All graphs are
undirected; ``Graph`` is immutable and hashable so computed invariants can be
cached per graph.

Each family's argument rule is written once, as the ``_check_*_args``
function its builder runs.  ``_FAMILY_TABLE`` gives every family of the spec
grammar its argument count, rule and builder; ``GraphSpec.check`` runs the
rule without building, and every other module checks arguments through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations

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


def _check_path_args(n: int) -> None:
    if n < 1:
        raise ValueError("path needs at least one vertex")


def path_graph(n: int) -> Graph:
    """Path on n >= 1 vertices 0..n-1, edges (i, i+1)."""
    _check_path_args(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _check_cycle_args(n: int) -> None:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices 0..n-1 (consecutive plus the wrap edge)."""
    _check_cycle_args(n)
    return Graph(n, _body_edges("cycle", range(n)))


def _check_complete_args(n: int) -> None:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")


def complete_graph(n: int) -> Graph:
    _check_complete_args(n)
    return Graph(n, _body_edges("complete", range(n)))


def _check_spider_args(*legs) -> None:
    if not legs or any(x < 1 for x in legs):
        raise ValueError("spider legs must be positive")


def spider_graph(legs) -> Graph:
    """Spider: center vertex 0, legs laid out consecutively in declaration order.

    Leg i of length L contributes a path of L vertices; the center is adjacent
    to the first vertex of each leg (a leaf of that path).
    """
    legs = tuple(int(x) for x in legs)
    _check_spider_args(*legs)
    edges = []
    nxt = 1
    for leg in legs:
        nxt = _pendant_path(edges, 0, nxt, leg)
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
    if body not in ("cycle", "complete"):
        raise ValueError(f"unknown sun body {body!r}")
    edges = _body_edges(body, range(n))
    nxt = n
    for i, r in enumerate(rays):
        nxt = _pendant_path(edges, i, nxt, r)
    return Graph(nxt, edges)


def _check_tadpole_args(m: int, l: int) -> None:
    if m < 3:
        raise ValueError("tadpole cycle needs m >= 3")
    if l < 0:
        raise ValueError("tail length must be nonnegative")


def tadpole_graph(m: int, l: int) -> Graph:
    """Cycle C_m (vertices 0..m-1) with a pendant path of l vertices at vertex 0.

    l = 0 gives the bare cycle.  Edge count m + l.
    """
    _check_tadpole_args(m, l)
    edges = _body_edges("cycle", range(m))
    return Graph(_pendant_path(edges, 0, m, l), edges)


def _check_lollipop_args(m: int, l: int) -> None:
    if m < 3:
        raise ValueError("lollipop clique needs m >= 3")
    if l < 0:
        raise ValueError("tail length must be nonnegative")


def lollipop_graph(m: int, l: int) -> Graph:
    """Complete graph K_m (vertices 0..m-1) with a pendant path of l vertices at 0."""
    _check_lollipop_args(m, l)
    edges = _body_edges("complete", range(m))
    return Graph(_pendant_path(edges, 0, m, l), edges)


def _check_dumbbell_args(m: int, l: int, n: int) -> None:
    if m < 3 or n < 3:
        raise ValueError("dumbbell bodies need at least three vertices each")
    if l < -1:
        raise ValueError("connector length must be at least -1")


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
    at = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edge_list):
        at[u].append(i)
        at[v].append(i)
    return Graph(len(g.edges), [pair for ids in at for pair in combinations(ids, 2)])


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
    subset = list(subset)
    for u, v in subset:
        e = (u, v) if u < v else (v, u)
        if e not in g.edges:
            raise ValueError(f"edge {e} not in graph")
    return Partition(map(len, Graph(g.n, subset).components()))


# -------------------------------------------------------------- spec grammar

@dataclass(frozen=True)
class GraphSpec:
    """Parsed graph description: a family name plus arguments.

    ``args`` holds ints for the simple families, ``(n, rays)`` for suns,
    nested GraphSpecs for ``line``/``union`` and ``(d, edge tuple)`` for
    explicit edge lists.
    """

    family: str
    args: tuple

    def _entry(self):
        """The family's table entry, once the argument count is right."""
        if self.family not in _FAMILY_TABLE:
            raise ValueError(f"unknown family {self.family!r}")
        arity, rule, builder = _FAMILY_TABLE[self.family]
        if arity is not None and len(self.args) != arity:
            raise ValueError(f"{self.family} takes {arity} argument(s), got {len(self.args)}")
        return rule, builder

    def check(self) -> None:
        """Raise ``ValueError`` exactly when ``build`` would, without building."""
        rule, _ = self._entry()
        rule(*self.args)

    def build(self) -> Graph:
        _, builder = self._entry()
        return builder(*self.args)

    def __str__(self):
        f, a = self.family, self.args
        if f in ("sun", "csun"):
            return f"{f}({a[0]};{','.join(str(x) for x in a[1])})"
        if f == "edges":
            pairs = ",".join(f"({u},{v})" for u, v in a[1])
            return f"edges[{a[0]}:{pairs}]"
        return f"{f}({','.join(str(x) for x in a)})"


#: family -> (argument count or None for any, rule, builder); both take the
#: spec's arguments unpacked.  An edge list's rule is the ``Graph`` constructor.
_FAMILY_TABLE = {
    "path": (1, _check_path_args, path_graph),
    "cycle": (1, _check_cycle_args, cycle_graph),
    "complete": (1, _check_complete_args, complete_graph),
    "spider": (None, _check_spider_args, lambda *legs: spider_graph(legs)),
    "sun": (2, _check_sun_args, sun_graph),
    "csun": (2, _check_sun_args, partial(sun_graph, body="complete")),
    "tadpole": (2, _check_tadpole_args, tadpole_graph),
    "lollipop": (2, _check_lollipop_args, lollipop_graph),
    "dumbbell": (3, _check_dumbbell_args, dumbbell_graph),
    "cdumbbell": (3, _check_dumbbell_args, partial(dumbbell_graph, kind="complete")),
    "sdumbbell": (3, _check_dumbbell_args, partial(dumbbell_graph, kind="semicomplete")),
    "line": (1, GraphSpec.check, lambda inner: line_graph(inner.build())),
    "union": (2, lambda a, b: (a.check(), b.check()), lambda a, b: disjoint_union(a.build(), b.build())),
    "edges": (2, Graph, Graph),
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
        if fam in _FAMILY_TABLE:
            self.expect("(")
            vals = self.int_list(")")
            arity = _FAMILY_TABLE[fam][0]
            if arity is not None and len(vals) != arity:
                self.error(f"{fam} takes {arity} argument(s), got {len(vals)}")
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


def as_spec(target):
    """The spec ``target`` names: a str is parsed, a GraphSpec is returned as
    is, and anything else (a ``Graph``) gives None."""
    if isinstance(target, str):
        return parse_graph_spec(target)
    if isinstance(target, GraphSpec):
        return target
    return None
