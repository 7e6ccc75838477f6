"""Checks on the program's outputs that do not copy any earlier output.

Each check returns a list of problems; an empty list means the output passed.
The 3-colouring count is the benchmark's own backtracking, so the CSF and the
chromatic polynomial are compared against an independent number, and every
basis change is checked by converting back.
"""

from __future__ import annotations

from chromsym import Partition, symfunc
from chromsym.positivity import triangle_sun_missing_type, uniform_sun_missing_type


def count_colourings(n: int, edges, k: int = 3) -> int:
    """Proper colourings of the graph with ``k`` colours, by backtracking."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, seen = [], [False] * n
    for root in range(n):  # breadth-first, so each vertex meets coloured neighbours early
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:
            order.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    colour = [-1] * n

    def place(i):
        if i == n:
            return 1
        v = order[i]
        taken = {colour[w] for w in adj[v]}
        total = 0
        for c in range(k):
            if c not in taken:
                colour[v] = c
                total += place(i + 1)
        colour[v] = -1
        return total

    return place(0)


def csf_problems(f, g) -> list:
    """A full CSF, in any basis, must give X_G(1^3) = the number of 3-colourings."""
    value = (symfunc.s_to_e(f) if f.basis.value == "s" else f).evaluate_ones(3)
    want = count_colourings(g.n, g.edge_list)
    return [] if value == want else [f"X(1^3) = {value}, but the graph has {want} 3-colourings"]


def poly_problems(coeffs, g) -> list:
    """A chromatic polynomial (constant term first) against |V|, |E| and the 3-colourings."""
    out = []
    if len(coeffs) - 1 != g.n:
        out.append(f"degree {len(coeffs) - 1}, expected |V| = {g.n}")
    else:
        if coeffs[-1] != 1:
            out.append(f"leading coefficient {coeffs[-1]}, expected 1")
        if coeffs[-2] != -len(g.edges):
            out.append(f"x^(|V|-1) coefficient {coeffs[-2]}, expected -|E| = {-len(g.edges)}")
    value = sum(c * 3**i for i, c in enumerate(coeffs))
    want = count_colourings(g.n, g.edge_list)
    if value != want:
        out.append(f"P(3) = {value}, but the graph has {want} 3-colourings")
    return out


def round_trip_problems(converted, f) -> list:
    """A Schur or power-sum expansion of ``f`` must convert back to ``f`` exactly."""
    to_e = symfunc.s_to_e if converted.basis.value == "s" else symfunc.p_to_e
    back = to_e(converted)
    return [] if back == f else [f"{converted.basis.value} -> e does not give back the e-expansion"]


def witness_problems(positive, witness, f) -> list:
    """A positivity verdict must match its witness, whose coefficient is negative in ``f``."""
    if positive:
        return [] if witness is None else ["positive verdict with a witness"]
    if witness is None:
        return ["negative verdict without a witness"]
    lam, c = witness
    if not c < 0:
        return [f"witness {lam} has coefficient {c}, not negative"]
    if f is not None and f.coefficient(lam) != c:
        return [f"witness {lam} carries {c}, the expansion has {f.coefficient(lam)}"]
    return []


def expected_missing_types(family: str, args) -> list:
    """Types the sun formulas say a sun or complete sun cannot realize."""
    if family not in ("sun", "csun"):
        return []
    n, rays = args
    out = []
    if len(set(rays)) == 1:
        out.append(uniform_sun_missing_type(n, rays[0]))
    if n == 3:
        lam = triangle_sun_missing_type(*rays)
        if lam is not None:
            out.append(lam)
    return out


def scan_problems(missing, g, e_positive, expected) -> list:
    """Missing types of a connected graph rule out e-positivity (Stanley), and the
    types the sun formulas predict must be among them."""
    missing = {Partition(lam) for lam in missing}
    out = [f"predicted type {lam} not reported missing" for lam in expected if lam not in missing]
    if missing and g.is_connected() and e_positive:
        out.append("connected graph with a missing type reported e-positive")
    return out


def report_problems(equal) -> list:
    """An identity check must report both sides equal."""
    return [] if equal is True else ["identity reported unequal"]
