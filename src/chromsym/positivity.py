"""Positivity verdicts and combinatorial obstructions to e-positivity.

``e_positivity`` and ``s_positivity`` take only a target and report the
engine ``compute_csf`` chose for it: the closed form for a spec that one
answers, else the subset expansion, which refuses graphs above
``csf.CSF_EDGE_CAP`` edges before it starts.  ``s_positivity`` checks the
basis-transition guard on |V| before any engine starts.

A connected graph whose chromatic symmetric function is e-positive has a
connected partition of every type: for each partition lambda of |V| the vertex
set splits into blocks of sizes lambda_i each inducing a connected subgraph.
``missing_partition_scan`` inventories the types without such a partition,
for a graph, spec or spec string, refusing above ``DEFAULT_SCAN_VERTEX_CAP``
vertices itself (a spec before it is built).  It renumbers the vertices by
ascending degree and first looks for a spanning path by a greedy walk: the
consecutive runs of a path are a connected partition of every type, so a
path found answers the scan with no search (every tadpole, lollipop and
dumbbell of each kind has one).  Otherwise it walks the types finest first
and searches a type not yet found on integer bit masks, placing the lowest
remaining vertex, the least connected, in a connected block of each
distinct remaining size; one scan shares a record of the (remaining
vertices, sizes) pairs shown to have no split.  A renumbered graph has the
same connected partition types, so the renumbering cannot change the
output.  Merging two witness blocks joined by an edge keeps them connected,
so every type such merges reach is found with no search: on the
benchmark's positivity graphs about one type in fifty is searched.  As only
explicit blocks mark a type and every other type is searched in full, the
output is that of searching every type; a walk that finds no path only
loses the shortcut.  ``has_connected_partition`` keeps the search, in the
caller's numbering, as its witness blocks are output.  The
``*_missing_type`` helpers give the predicted obstruction types for sun
graphs together with the coefficient values they force.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .csf import _guard, compute_csf, csf_degree
from .graphs import Graph, GraphSpec, _check_sizes, as_spec
from .partitions import Partition, _count_keys, partitions_of
from .symfunc import Basis, _degree_guard, e_to_s, fraction_json

#: ceiling on |V| for full missing-type scans
DEFAULT_SCAN_VERTEX_CAP = 14


class PositivityReport(namedtuple("PositivityReport", "positive basis witness engine")):
    """Outcome of a positivity check in one basis, recording the engine used.

    ``witness`` is None, or ``(Partition, Fraction)`` for the smallest negative term.
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:
        wit = None
        if self.witness is not None:
            lam, c = self.witness
            wit = {"partition": list(lam), **fraction_json(c)}
        return {
            "positive": self.positive,
            "basis": self.basis.value,
            "witness": wit,
            "engine": self.engine,
        }


class ConnectedPartitionWitness(namedtuple("ConnectedPartitionWitness", "blocks")):
    """Blocks of a connected partition, each a sorted vertex tuple."""

    __slots__ = ()


def e_positivity(target) -> PositivityReport:
    """Is X_G e-positive?  Witness is the smallest partition with a negative coefficient."""
    f, used = compute_csf(target)
    ok, witness = f.is_nonnegative()
    return PositivityReport(ok, Basis.E, witness, used)


def s_positivity(target) -> PositivityReport:
    """Is X_G s-positive (Schur-positive)?"""
    target = as_spec(target) or target  # a spec string is parsed once
    _degree_guard(csf_degree(target))
    f, used = compute_csf(target)
    ok, witness = e_to_s(f).is_nonnegative()
    return PositivityReport(ok, Basis.S, witness, used)


# ----------------------------------------------------- connected partitions


def _neighbour_masks(g: Graph) -> list:
    """Each vertex's neighbours as an int bit mask."""
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _connected_blocks(nbr, start, size, allowed):
    """Yield the connected ``size``-subsets of the mask ``allowed`` containing
    ``start``, as masks, each exactly once: the lowest candidate adjacent to
    the block is either taken, or banned for the rest of its branch."""

    def grow(block, frontier, banned, left):
        if not left:
            yield block
            return
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = block | low
            yield from grow(grown, frontier | nbr[low.bit_length() - 1] & allowed & ~grown & ~banned,
                            banned, left - 1)
            banned |= low

    yield from grow(1 << start, nbr[start] & allowed, 0, size - 1)


def _search(nbr, parts, remaining, failed):
    """Block masks splitting the mask ``remaining`` into connected blocks of sizes
    ``parts`` (lowest vertex first, once per distinct size), or None.  ``failed``
    records the (remaining, parts) pairs shown to have no split, and grows."""
    if not parts:
        return []
    if (remaining, parts) in failed:
        return None
    start = (remaining & -remaining).bit_length() - 1
    for idx, size in enumerate(parts):
        if idx and size == parts[idx - 1]:
            continue
        rest = parts[:idx] + parts[idx + 1:]
        for block in _connected_blocks(nbr, start, size, remaining):
            sub = _search(nbr, rest, remaining & ~block, failed)
            if sub is not None:
                return [block, *sub]
    failed.add((remaining, parts))
    return None


def has_connected_partition(g: Graph, lam) -> ConnectedPartitionWitness | None:
    """A vertex partition with connected blocks of sizes ``lam``, or None.
    Guarded at ``DEFAULT_ENUMERATION_CAP`` vertices, bounding the recursion.
    Unlike ``missing_partition_scan`` it keeps the caller's vertex numbering
    and takes no spanning-path shortcut: its witness blocks are output, and
    name the caller's vertices as the search finds them."""
    _guard("connected-partition search", g.n)
    lam = Partition(lam)
    if lam.weight != g.n:
        raise ValueError(f"partition weighs {lam.weight}, graph has {g.n} vertices")
    found = _search(_neighbour_masks(g), tuple(lam), (1 << g.n) - 1, set())
    if found is None:
        return None
    return ConnectedPartitionWitness(tuple(tuple(v for v in range(g.n) if b >> v & 1) for b in found))


def _spanning_path(nbr):
    """A spanning path of the graph with neighbour masks ``nbr``, as a vertex
    order, or None.  From each start vertex in turn, one walk steps to the
    unvisited neighbour with the fewest unvisited neighbours (Warnsdorff's
    rule, ties to the lowest vertex), with no backtracking: at most n walks of
    n steps.  A path has at most two vertices of degree <= 1, so with more no
    walk starts.  None only means no walk found a path."""
    n = len(nbr)
    if n >= 2 and sum(m.bit_count() <= 1 for m in nbr) > 2:
        return None
    for start in range(n):
        order, seen, v = [start], 1 << start, start
        while len(order) < n:
            bits, v, fewest = nbr[v] & ~seen, -1, n
            while bits:
                low = bits & -bits
                u = low.bit_length() - 1
                onward = (nbr[u] & ~seen).bit_count()
                if onward < fewest:
                    v, fewest = u, onward
                bits ^= low
            if v < 0:
                break
            order.append(v)
            seen |= 1 << v
        else:
            return order
    return None


@lru_cache(maxsize=None)
def _scan_types(n: int) -> tuple:
    """The types of n finest first, each with its ``partitions._count_keys`` key."""
    unit, _ = _count_keys(n)
    return tuple((lam, sum(unit[s] for s in lam)) for lam in reversed(partitions_of(n)))


def missing_partition_scan(target) -> list:
    """All types lambda of |V| with no connected partition, in canonical order.

    ``target`` is a Graph, GraphSpec or spec string.  Nonempty output
    certifies that X_G is not e-positive (for connected G); empty output is
    necessary but not sufficient for e-positivity.  Guarded at
    ``DEFAULT_SCAN_VERTEX_CAP`` vertices, for a spec before the build.

    The vertices are renumbered by a stable sort on ascending degree, so the
    search places the least-connected remaining vertex first: it lies in few
    connected blocks, and a failing branch dies early.  Only the types are
    output, and they do not depend on the numbering.  The types are walked
    finest first, from (1^n), keyed on ``partitions._count_keys`` integers.  A
    type not yet found is searched; the union of two witness blocks joined by
    an edge is connected, so every type reached by merging adjacent blocks,
    again and again, is found with no search.  Only explicit connected blocks
    mark a type, and every other type gets the full search, so the output is
    that of searching each type.

    Before any search the scan looks for a spanning path (``_spanning_path``).
    Cutting a path into consecutive runs of sizes lambda_i gives connected
    blocks for every lambda, so a path found means no type is missing.  When
    the walk finds none the scan searches as above, so the output is the same.
    """
    spec = as_spec(target)
    _guard("full scans", csf_degree(spec or target), DEFAULT_SCAN_VERTEX_CAP)
    g = target if spec is None else spec.build()
    degree = [mask.bit_count() for mask in _neighbour_masks(g)]
    rank = [0] * g.n
    for i, v in enumerate(sorted(range(g.n), key=degree.__getitem__)):
        rank[v] = i
    nbr = _neighbour_masks(Graph(g.n, [(rank[u], rank[v]) for u, v in g.edges]))
    if _spanning_path(nbr) is not None:
        return []
    unit, _ = _count_keys(g.n)
    failed, found, missing = set(), set(), []
    for lam, key in _scan_types(g.n):
        if key in found:
            continue
        blocks = _search(nbr, tuple(lam), (1 << g.n) - 1, failed)
        if blocks is None:
            missing.append(lam)
            continue
        found.add(key)
        parts = []
        for b in blocks:
            reach, bits = 0, b  # every neighbour of a vertex of the block
            while bits:
                low = bits & -bits
                reach |= nbr[low.bit_length() - 1]
                bits ^= low
            parts.append((b, b.bit_count(), reach))
        stack = [(key, parts)]
        while stack:
            key, parts = stack.pop()
            for i, (bi, si, ri) in enumerate(parts):
                for j in range(i + 1, len(parts)):
                    bj, sj, rj = parts[j]
                    if not ri & bj:
                        continue
                    merged = key - unit[si] - unit[sj] + unit[si + sj]
                    if merged not in found:
                        found.add(merged)
                        rest = parts[:i] + parts[i + 1:j] + parts[j + 1:]
                        stack.append((merged, [*rest, (bi | bj, si + sj, ri | rj)]))
    return missing[::-1]


# ------------------------------------------------------------ sun obstructions


def _check_uniform_sun(n: int, k: int) -> int:
    """The sun rule for n equal rays of length k, without the ray tuple; returns |V|."""
    message = "need n >= 3 and k >= 1"
    return _check_sizes(3, message, n) * (_check_sizes(1, message, k) + 1)


def uniform_sun_missing_type(n: int, k: int) -> Partition:
    """The two-part type that suns with n equal rays of length k cannot realize.

    Both the ordinary and the complete sun on parameters (n, k) lack a
    connected partition of this type, so neither is e-positive.
    """
    d = _check_uniform_sun(n, k)
    if k == 1:
        if n % 2 == 0:
            return Partition((n + 1, n - 1))
        return Partition((n, n))
    if d % 2 == 0:
        return Partition((d // 2 + 1, d // 2 - 1))
    return Partition(((d + 1) // 2, (d - 1) // 2))


def uniform_sun_coefficient(n: int, k: int) -> int:
    """The e-coefficient of ``uniform_sun_missing_type(n, k)`` in X of the ordinary sun."""
    _check_uniform_sun(n, k)
    if k == 1:
        return 2 * n * (1 - n) if n % 2 == 0 else n * (1 - n)
    return n * (k + 1) * (1 - n)


def gcd_missing_type(rays) -> Partition | None:
    """A two-part type missing from any sun whose ray lengths share a common factor.

    With the rays sorted so r_1 is longest: if gcd(r_i + 1) > 1 over all rays
    and r_1 + 2 <= (sum of the other rays) + n - 2, the type
    ((sum of others) + n - 2, r_1 + 2) has no connected partition in either
    body kind.  Returns None when either condition fails.
    """
    rays = tuple(rays)
    n = len(rays)
    GraphSpec("sun", (n, rays)).check()
    rays = sorted(rays, reverse=True)
    g = 0
    for r in rays:
        g = gcd(g, r + 1)
    if g <= 1:
        return None
    big = rays[0] + 2
    other = sum(rays[1:]) + n - 2
    if big > other:
        return None
    return Partition((other, big))


def triangle_sun_missing_type(a: int, b: int, c: int) -> Partition | None:
    """The two-part type missing from the three-ray sun S(3; a, b, c).

    Inputs are sorted internally so a is the longest ray.  When a < b + c the
    sun has no connected partition of type (b + c + 1, a + 2); otherwise the
    obstruction does not apply and None is returned.
    """
    a, b, c = sorted((a, b, c), reverse=True)
    GraphSpec("sun", (3, (a, b, c))).check()
    if a >= b + c:
        return None
    return Partition((b + c + 1, a + 2))


# ------------------------------------------------------------------ matchings


def sun_matching_criterion(spec) -> bool:
    """Whether a sun has a perfect (even order) or near-perfect (odd order) matching.

    Decided from the rays: an odd ray pairs off with its attachment vertex,
    and an even ray leaves that vertex to pair inside the body.  A clique
    body always pairs those vertices off, and so does a cycle body when
    every ray is even.  Otherwise the even rays' attachment vertices form
    paths, one per run of consecutive even rays read cyclically, and they
    pair off exactly when at most one run has odd length.
    """
    spec = as_spec(spec)
    if spec is None or spec.family not in ("sun", "csun"):
        raise ValueError("matching criterion applies to sun and csun specs (a GraphSpec or spec string)")
    spec.check()
    _, rays = spec.args
    if spec.family == "csun" or all(r % 2 == 0 for r in rays):
        return True
    first_odd = next(i for i, r in enumerate(rays) if r % 2)
    parities = "".join(str(r % 2) for r in rays[first_odd:] + rays[:first_odd])
    return sum(len(run) % 2 for run in parities.split("1")) <= 1


# ------------------------------------------------------------------- spiders


def spider_nonpositivity_criterion(legs, i: int) -> bool:
    """Floor-quotient test certifying a spider is not e-positive.

    Legs are taken in the given order (not resorted).  With n = 1 + sum(legs),
    q = n // (legs[i-1] + 1) and t = sum of the legs after position i
    (positions counted from 1), the spider is not e-positive whenever
    q >= (legs[i-1] + 1) / (t - 1); the comparison is done exactly as
    q * (t - 1) >= legs[i-1] + 1.  Requires 2 <= i < number of legs and
    t >= 2.  A False verdict is inconclusive.
    """
    legs = tuple(legs)
    n = GraphSpec("spider", legs).check()
    message = "position must satisfy 2 <= i < number of legs"
    if _check_sizes(2, message, i) >= len(legs):
        raise ValueError(message)
    t = sum(legs[i:])
    if t <= 1:
        raise ValueError("trailing legs must sum to at least 2")
    q = n // (legs[i - 1] + 1)
    return q * (t - 1) >= legs[i - 1] + 1
