import contextlib
import hashlib
import inspect
import itertools
import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromsym import csf as csf_module, identities
from chromsym.csf import (
    CSF_EDGE_CAP,
    DEFAULT_CHROMPOLY_EDGE_CAP,
    ChromPoly,
    _subset_counts,
    chromatic_poly_closed,
    chromatic_poly_dc,
    closed_csf_for,
    compute_chromatic,
    compute_csf,
    csf_complete_closed,
    csf_complete_dumbbell_closed,
    csf_cycle_closed,
    csf_dc,
    csf_degree,
    csf_dumbbell_closed,
    csf_lollipop_closed,
    csf_path_closed,
    csf_semicomplete_dumbbell_closed,
    csf_spider_closed,
    csf_subsets,
    csf_tadpole_closed,
)
from chromsym.graphs import (
    _FAMILY_TABLE,
    Graph,
    GraphSpec,
    complete_graph,
    cycle_graph,
    disjoint_union,
    dumbbell_graph,
    line_graph,
    lollipop_graph,
    parse_graph_spec,
    path_graph,
    spider_graph,
    sun_graph,
    tadpole_graph,
)
from chromsym.identities import _canonical_dumbbell_triples, _grid_dumbbell, _sun_specs, iter_grid
from chromsym.partitions import DEFAULT_ENUMERATION_CAP, Partition, _count_keys, partitions_of
from chromsym.positivity import has_connected_partition, missing_partition_scan
from chromsym.symfunc import Basis, SymFunc, e_to_p, e_to_s, p_to_e, s_to_e

# a spread of small builder outputs used for cross-engine checks
SMALL_GRAPHS = [
    path_graph(1),
    path_graph(2),
    path_graph(5),
    cycle_graph(3),
    cycle_graph(6),
    complete_graph(4),
    spider_graph((2, 2, 1)),
    sun_graph(3, (1, 1, 1)),
    sun_graph(3, (2, 1, 1)),
    sun_graph(4, (1, 1, 1, 1), body="complete"),
    tadpole_graph(4, 2),
    lollipop_graph(4, 1),
    dumbbell_graph(3, 0, 3),
    dumbbell_graph(3, -1, 3),
    dumbbell_graph(3, 1, 3, kind="complete"),
    dumbbell_graph(3, 1, 3, kind="semicomplete"),
    disjoint_union(path_graph(3), cycle_graph(3)),
]


def e_csf(g):
    return p_to_e(csf_subsets(g))


def closed_arg_lists(family, values):
    """Every argument tuple over ``values`` of each shape that ``family``'s
    closed form answers: one to three spider legs, three rays on a 3-vertex
    sun body, else one value per argument of ``_FAMILY_TABLE``."""
    if family == "spider":
        return [legs for k in (1, 2, 3) for legs in itertools.product(values, repeat=k)]
    if family in ("sun", "csun"):
        return [(3, rays) for rays in itertools.product(values, repeat=3)]
    return list(itertools.product(values, repeat=_FAMILY_TABLE[family][0]))


def walk_subset_counts(n, edges):
    """Reference for ``_subset_counts``: a depth-first walk over the subsets.

    It decides one edge per level, in the given order, on a union-find
    without path compression, so each union is undone in O(1).  An edge whose
    endpoints are already joined ends the branch: the walks that skip and
    take it match with opposite signs and cancel.  The leaves left are the
    |P_G(-1)| sets with no broken circuit, each keyed on ``by_size``, the
    count of components of each size.
    """
    parent = list(range(n))
    size = [1] * n
    by_size = [0, n] + [0] * (n - 1)
    table = {}
    m = len(edges)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i, sign):
        if i == m:
            key = tuple(by_size)
            table[key] = table.get(key, 0) + sign
            return
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            return
        rec(i + 1, sign)
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        a, b = size[ru], size[rv]
        parent[rv], size[ru] = ru, a + b
        by_size[a] -= 1
        by_size[b] -= 1
        by_size[a + b] += 1
        rec(i + 1, -sign)
        by_size[a + b] -= 1
        by_size[b] += 1
        by_size[a] += 1
        parent[rv], size[ru] = rv, a

    rec(0, 1)
    return {tuple(s for s in range(n, 0, -1) for _ in range(key[s])): c for key, c in table.items()}


def sized_table(n, edges):
    """``_subset_counts`` with sizes, its count keys decoded to size tuples."""
    decode = _count_keys(n)[1]
    return {decode(key): c for key, c in _subset_counts(n, edges).items()}


def ref_subset_counts(n, edges):
    """Reference for ``_subset_counts``: the same frontier DP in BFS vertex order.

    It keys each closed-size multiset on a sorted tuple, re-sorted whenever a
    block closes, and redoes the label arithmetic for every state.  The order
    changes only the frontier width, so both must give the same table.
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


def bond_sign_violations(f):
    """p-terms of ``f`` whose sign is not (-1)^(n - len(lambda)).

    X_G = sum over the bond lattice of mu(0, pi) p_type(pi), and mu(0, pi) has
    sign (-1)^(n - blocks(pi)) (Stanley 1995, Thm 2.6; Rota 1964), so every
    p-coefficient of a CSF is 0 or has that sign.
    """
    return [lam for lam, c in f.terms.items() if c * (-1) ** (f.degree - len(lam)) < 0]


class TestSubsetExpansion:
    def test_single_vertex(self):
        f = csf_subsets(path_graph(1))
        assert f == SymFunc.single(Basis.P, Partition([1]))

    def test_single_edge(self):
        f = csf_subsets(path_graph(2))
        expect = SymFunc.single(Basis.P, Partition([1, 1])) + SymFunc.single(
            Basis.P, Partition([2]), Fraction(-1)
        )
        assert f == expect

    def test_path3_frozen(self):
        f = csf_subsets(path_graph(3))
        terms = {tuple(lam): c for lam, c in f.terms.items()}
        assert terms == {(1, 1, 1): 1, (2, 1): -2, (3,): 1}

    def test_triangle_in_e(self):
        assert e_csf(cycle_graph(3)) == SymFunc.single(Basis.E, Partition([3]), 6)

    def test_path3_in_e(self):
        expect = SymFunc.single(Basis.E, Partition([3]), 3) + SymFunc.single(
            Basis.E, Partition([2, 1])
        )
        assert e_csf(path_graph(3)) == expect

    def test_complete_is_factorial(self):
        import math

        for n in range(2, 7):
            assert e_csf(complete_graph(n)) == SymFunc.single(
                Basis.E, Partition([n]), math.factorial(n)
            )

    def test_multiplicative_over_components(self):
        a, b = path_graph(3), cycle_graph(4)
        assert csf_subsets(disjoint_union(a, b)) == csf_subsets(a) * csf_subsets(b)

    def test_integer_coefficients(self):
        for g in SMALL_GRAPHS[:8]:
            for coeff in e_csf(g).terms.values():
                assert coeff.denominator == 1


class TestDeletionContraction:
    @pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: f"{g.n}v{len(g.edges)}e")
    def test_matches_subsets(self, g):
        assert csf_dc(g) == csf_subsets(g)

    def test_random_graphs(self):
        rng = random.Random(20240815)
        for _ in range(25):
            n = rng.randint(2, 7)
            pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(pool, k=rng.randint(0, min(len(pool), 12)))
            g = Graph(n, edges)
            assert csf_dc(g) == csf_subsets(g)

    @pytest.mark.parametrize("spec", ["complete(7)", "cdumbbell(4,2,6)", "csun(6;1,1,1,1,1,1)"])
    def test_matches_subsets_on_19_to_26_edges(self, spec):
        g = parse_graph_spec(spec).build()
        assert 19 <= len(g.edges) <= CSF_EDGE_CAP
        assert csf_dc(g) == csf_subsets(g)

    def test_single_vertex(self):
        assert csf_dc(Graph(1, [])) == SymFunc.single(Basis.P, Partition([1]))

    def test_components_are_split_not_kept_connected(self, monkeypatch):
        # the kernel splits csun(6;1^6) into blocks 1,099 times; a kernel that
        # keeps every state connected instead of taking the component product
        # (deleting leaf edges first on trees) splits it 12,677 times
        g = parse_graph_spec("csun(6;1,1,1,1,1,1)").build()
        splits = TestBlockMemo.counted(monkeypatch, "_biconnected")
        out = csf_dc(g)
        assert len(splits) <= 1200
        assert out == csf_subsets(g)


def int_coefficients(f) -> bool:
    return all(type(c) is int for c in f.terms.values())


class TestCoefficientTypes:
    """CSF coefficients are stored as ints on every route; the public reads
    return Fraction, and rational input stays rational."""

    @pytest.mark.parametrize(
        "spec",
        ["path(7)", "cycle(6)", "complete(5)", "tadpole(4,3)", "lollipop(5,3)", "dumbbell(4,1,5)",
         "cdumbbell(4,2,5)", "sdumbbell(4,1,4)", "sun(3;2,1,2)", "csun(4;1,1,1,1)", "spider(3,2,2)"],
    )
    def test_every_route_stores_ints(self, spec):
        f, _ = compute_csf(spec)
        g = parse_graph_spec(spec).build()
        dc = csf_dc(g)
        assert dc == csf_subsets(g) and p_to_e(dc) == f
        s = e_to_s(f)
        for h in (f, dc, p_to_e(dc), s, s_to_e(s)):
            assert int_coefficients(h), h

    def test_closed_and_subset_engines_both_seen(self):
        assert compute_csf("cdumbbell(4,2,5)")[1] == "closed"
        assert compute_csf("sun(4;2,1,2,1)")[1] == "subsets"

    def test_public_reads_are_fractions(self):
        f, _ = compute_csf("sun(3;1,1,1)")
        assert type(f.coefficient((6,))) is Fraction and f.coefficient((6,)) == 12
        assert type(f.coefficient((2, 2, 2))) is Fraction
        ok, (lam, c) = f.is_nonnegative()
        assert not ok and repr((lam, c)) == "(Partition([3, 3]), Fraction(-6, 1))"

    def test_rational_input_stays_rational(self):
        half = SymFunc.single(Basis.E, (2, 1), Fraction(1, 2))
        assert half.terms == {(2, 1): Fraction(1, 2)}
        for h in (half + half + half, half * half, 3 * half, e_to_p(half)):
            assert any(type(c) is Fraction for c in h.terms.values()), h
        assert (half * half).coefficient((2, 2, 1, 1)) == Fraction(1, 4)
        assert e_to_p(half).coefficient((1, 1, 1)) == Fraction(1, 4)


class TestClosedForms:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_path(self, d):
        assert csf_path_closed(d) == e_csf(path_graph(d))

    @pytest.mark.parametrize("d", range(3, 10))
    def test_cycle(self, d):
        assert csf_cycle_closed(d) == e_csf(cycle_graph(d))

    def test_cycle_two_is_the_edge(self):
        assert csf_cycle_closed(2) == e_csf(path_graph(2))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete(self, n):
        assert csf_complete_closed(n) == e_csf(complete_graph(n))

    @pytest.mark.parametrize("a,b", [(3, 1), (3, 4), (4, 2), (5, 3), (6, 1)])
    def test_tadpole(self, a, b):
        assert csf_tadpole_closed(a, b) == e_csf(tadpole_graph(a, b))

    def test_tadpole_no_tail_is_cycle(self):
        assert csf_tadpole_closed(5, 0) == csf_cycle_closed(5)

    @pytest.mark.parametrize("a,b", [(3, 1), (3, 3), (4, 2), (5, 1)])
    def test_lollipop(self, a, b):
        assert csf_lollipop_closed(a, b) == e_csf(lollipop_graph(a, b))

    def test_lollipop_no_tail_is_complete(self):
        assert csf_lollipop_closed(6, 0) == csf_complete_closed(6)

    @pytest.mark.parametrize("m,l,n", [(3, -1, 3), (3, 0, 3), (3, 1, 4), (4, 2, 4)])
    def test_dumbbell(self, m, l, n):
        assert csf_dumbbell_closed(m, l, n) == e_csf(dumbbell_graph(m, l, n))

    @pytest.mark.parametrize("m,l,n", [(3, -1, 3), (3, 0, 3), (3, 1, 4), (4, 0, 4)])
    def test_complete_dumbbell(self, m, l, n):
        assert csf_complete_dumbbell_closed(m, l, n) == e_csf(
            dumbbell_graph(m, l, n, kind="complete")
        )

    @pytest.mark.parametrize("m,l,n", [(3, -1, 3), (3, 0, 3), (4, 1, 3), (3, 2, 4)])
    def test_semicomplete_dumbbell(self, m, l, n):
        assert csf_semicomplete_dumbbell_closed(m, l, n) == e_csf(
            dumbbell_graph(m, l, n, kind="semicomplete")
        )

    def test_dumbbell_param_validation(self):
        for fn in (
            csf_dumbbell_closed,
            csf_complete_dumbbell_closed,
            csf_semicomplete_dumbbell_closed,
        ):
            with pytest.raises(ValueError):
                fn(2, 0, 3)
            with pytest.raises(ValueError):
                fn(3, -2, 3)

    def test_three_leg_spiders_and_triangle_suns(self):
        # every three-leg spider, legs in any order, and every sun(3;...) and
        # csun(3;...) on at most 14 vertices, against the oracle on the build
        specs = [GraphSpec("spider", legs) for legs in itertools.product(range(1, 12), repeat=3) if sum(legs) <= 13]
        specs += [GraphSpec(family, (3, rays)) for family in ("sun", "csun")
                  for rays in itertools.product(range(1, 10), repeat=3) if sum(rays) <= 11]
        assert len(specs) == 286 + 2 * 165
        for spec in specs:
            assert compute_csf(spec) == (e_csf(spec.build()), "closed"), spec

    def test_one_and_two_leg_spiders_are_paths(self):
        for legs in [(a,) for a in range(1, 14)] + list(itertools.product(range(1, 13), repeat=2)):
            if sum(legs) <= 13:
                assert csf_spider_closed(*legs) == csf_path_closed(sum(legs) + 1), legs


# ------------------------------------------------- term-by-term references
#
# The path and cycle forms as coefficient formulas over the partitions of d,
# the tadpole, lollipop and dumbbell forms, the two expansion verifiers' right
# sides and the closed chromatic polynomials written out term by term:
# references for ``_series``, ``_eliminate`` and the block product.


def multinomial(counts):
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)


def ref_path_closed(d):
    """For lambda with multiplicities (a_1, ..., a_d) the coefficient of e_lambda is
    multinomial(a) prod_j (j-1)^{a_j}
    + sum_i multinomial(a with a_i-1) prod_{j != i} (j-1)^{a_j} (i-1)^{a_i-1}, with 0^0 = 1."""
    terms = {}
    for lam in partitions_of(d):
        mult = Counter(lam)
        coeff = multinomial(list(mult.values()))
        for j, a in mult.items():
            coeff *= (j - 1) ** a
        for i in mult:
            part = multinomial([mult[j] - (j == i) for j in mult])
            for j, a in mult.items():
                part *= (j - 1) ** (a - (j == i))
            coeff += part
        terms[lam] = coeff
    return SymFunc(Basis.E, d, terms)


def ref_cycle_closed(d):
    """The coefficient of e_lambda is sum_i multinomial(a with a_i-1) i prod_j (j-1)^{a_j}."""
    terms = {}
    for lam in partitions_of(d):
        mult = Counter(lam)
        full = math.prod((j - 1) ** a for j, a in mult.items())
        terms[lam] = sum(multinomial([mult[j] - (j == i) for j in mult]) * i * full for i in mult)
    return SymFunc(Basis.E, d, terms)


def clique_w(a, i):
    return math.factorial(a - 1) * (a - i - 1) // math.factorial(a - i)


def ref_tadpole(a, b):
    out = (a - 1) * csf_path_closed(a + b)
    for i in range(2, a):
        out = out - csf_path_closed(a + b - i) * csf_cycle_closed(i)
    return out


def ref_lollipop(a, b):
    out = math.factorial(a - 1) * csf_path_closed(a + b)
    for i in range(1, a - 1):
        out = out - clique_w(a, i) * (csf_complete_closed(a - i) * csf_path_closed(b + i))
    return out


def ref_dumbbell(m, l, n):
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


def ref_complete_dumbbell(m, l, n):
    K, P = csf_complete_closed, csf_path_closed
    out = math.factorial(m - 1) * math.factorial(n - 1) * P(m + l + n)
    for i in range(1, m - 1):
        out = out - clique_w(m, i) * math.factorial(n - 1) * (K(m - i) * P(n + l + i))
    for j in range(1, n - 1):
        out = out - clique_w(n, j) * math.factorial(m - 1) * (K(n - j) * P(m + l + j))
    for i in range(1, m - 1):
        for j in range(1, n - 1):
            out = out + clique_w(m, i) * clique_w(n, j) * (K(m - i) * K(n - j) * P(l + i + j))
    return out


def ref_semicomplete_dumbbell(m, l, n):
    out = (m - 1) * ref_lollipop(n, m + l)
    for k in range(1, m - 1):
        out = out - ref_lollipop(n, l + k) * csf_cycle_closed(m - k)
    return out


def ref_tadpole_expansion(m, l, n):
    rhs = (m - 1) * csf_tadpole_closed(n, m + l)
    for k in range(1, m - 1):
        rhs = rhs - csf_tadpole_closed(n, l + k) * csf_cycle_closed(m - k)
    return rhs


def ref_lollipop_expansion(m, l, n):
    rhs = math.factorial(m - 1) * csf_lollipop_closed(n, m + l)
    for k in range(1, m - 1):
        rhs = rhs - clique_w(m, k) * csf_complete_closed(m - k) * csf_lollipop_closed(n, l + k)
    return rhs


def ref_chromatic(spec):
    x, xm1 = ChromPoly((0, 1)), ChromPoly((-1, 1))

    def power(p, k):
        out = ChromPoly((1,))
        for _ in range(k):
            out = out * p
        return out

    def cycle(k):
        return power(xm1, k) + (-1) ** k * xm1

    spec = parse_graph_spec(spec)
    fam, a = spec.family, spec.args
    if fam == "sun":
        return cycle(a[0]) * power(xm1, sum(a[1]))
    m, l, n = a
    if fam == "dumbbell":
        num = (
            power(xm1, l + 3)
            * (power(xm1, m - 1) + ChromPoly(((-1) ** m,)))
            * (power(xm1, n - 1) + ChromPoly(((-1) ** n,)))
        )
        return num.shift_divide()
    if fam == "cdumbbell":
        big, small = max(m, n), min(m, n)
        out = x * power(xm1, l + 3)
        for k in range(2, small):
            out = out * ChromPoly((-k, 1)) * ChromPoly((-k, 1))
        for k in range(small, big):
            out = out * ChromPoly((-k, 1))
        return out
    out = cycle(m) * power(xm1, l + 2)
    for k in range(2, n):
        out = out * ChromPoly((-k, 1))
    return out


#: vertex bound of the reference comparisons
REFERENCE_CAP = 16


def body_tail_args(cap):
    return [(a, b) for a in range(3, cap + 1) for b in range(cap - a + 1)]


def dumbbell_args(cap):
    return [tuple(kw.values()) for kw in _grid_dumbbell(cap)]


#: degree bound of the path and cycle reference comparisons
SERIES_REFERENCE_CAP = 30


class TestSeriesMatchesCoefficientFormulas:
    def test_path(self):
        for d in range(1, SERIES_REFERENCE_CAP + 1):
            assert csf_path_closed(d) == ref_path_closed(d), d

    def test_cycle(self):
        for d in range(2, SERIES_REFERENCE_CAP + 1):
            assert csf_cycle_closed(d) == ref_cycle_closed(d), d


class TestEliminationMatchesTermByTerm:
    def test_tadpole_and_lollipop(self):
        for a, b in body_tail_args(REFERENCE_CAP):
            assert csf_tadpole_closed(a, b) == ref_tadpole(a, b), (a, b)
            assert csf_lollipop_closed(a, b) == ref_lollipop(a, b), (a, b)

    @pytest.mark.parametrize(
        "closed, ref",
        [
            (csf_dumbbell_closed, ref_dumbbell),
            (csf_complete_dumbbell_closed, ref_complete_dumbbell),
            (csf_semicomplete_dumbbell_closed, ref_semicomplete_dumbbell),
        ],
    )
    def test_dumbbells(self, closed, ref):
        for args in dumbbell_args(REFERENCE_CAP):
            assert closed(*args) == ref(*args), args

    def test_expansion_verifiers(self, monkeypatch):
        monkeypatch.setattr(identities, "_oracle", lambda spec: SymFunc(Basis.E, spec.check()))
        for m, l, n in dumbbell_args(REFERENCE_CAP):
            assert identities.verify_dumbbell_tadpole_expansion(m, l, n).rhs == ref_tadpole_expansion(m, l, n)
            assert identities.verify_cdumbbell_lollipop_expansion(m, l, n).rhs == ref_lollipop_expansion(m, l, n)

    def test_chromatic_block_product(self):
        specs = list(_sun_specs(REFERENCE_CAP))
        for fam in ("dumbbell", "cdumbbell", "sdumbbell"):
            specs += [f"{fam}({m},{l},{n})" for m, l, n in dumbbell_args(REFERENCE_CAP)]
        for spec in specs:
            assert chromatic_poly_closed(spec) == ref_chromatic(spec), spec


#: 40-vertex spec -> the first 16 hex digits of the sha256 of
#: ``json.dumps(f.to_json_obj()) + str(f)`` for its closed form f, as
#: ``SymFunc`` products and sums computed it before the forms moved to count keys
CLOSED_FORM_SHA256 = {
    "dumbbell(20,-1,21)": "d2eacaa3ffff8dad",
    "csun(3;12,12,13)": "3916ded84946c272",
    "spider(13,13,13)": "e59ec4bf28ff849e",
    "cdumbbell(10,20,10)": "381b1cf34cf95734",
    "sdumbbell(19,0,21)": "ccb9b17926e33a70",
}


def small_closed_specs(cap=14):
    """Every spec of each ``_CLOSED_FORMS`` family with arguments in -1..7 that
    its rule admits, on at most ``cap`` vertices."""
    for family in csf_module._CLOSED_FORMS:
        for args in closed_arg_lists(family, range(-1, 8)):
            spec = GraphSpec(family, args)
            with contextlib.suppress(ValueError):
                if spec.check() <= cap:
                    yield spec


class TestClosedFormsOnCountKeys:
    def test_no_symfunc_arithmetic(self, monkeypatch):
        """The forms add and multiply count keys, and only name the result:
        with every ``SymFunc`` operator failing and every memo of ``csf``
        emptied, each form still returns what it returned before."""
        specs = list(small_closed_specs())
        assert {spec.family for spec in specs} == set(csf_module._CLOSED_FORMS)
        expected = [closed_csf_for(spec) for spec in specs]
        for memo in vars(csf_module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(SymFunc, name, lambda *a, name=name: pytest.fail(f"SymFunc.{name} ran"))
        for spec, f in zip(specs, expected):
            assert closed_csf_for(spec) == f, spec

    def test_forty_vertex_forms_are_pinned(self):
        for text, digest in CLOSED_FORM_SHA256.items():
            f = closed_csf_for(parse_graph_spec(text))
            assert f.degree == 40
            assert hashlib.sha256((json.dumps(f.to_json_obj()) + str(f)).encode()).hexdigest()[:16] == digest, text


class TestChromPoly:
    def test_arithmetic(self):
        x = ChromPoly((0, 1))
        p = (x - ChromPoly((1,))) * (x + ChromPoly((1,)))
        assert p == ChromPoly((-1, 0, 1))
        assert p(3) == 8
        assert (2 * x).coeffs == (0, 2)
        assert (x * 2).coeffs == (0, 2)
        assert p.degree == 2

    def test_normalises_leading_zeros(self):
        assert ChromPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert ChromPoly((0, 0)).coeffs == (0,)

    @pytest.mark.parametrize("coeffs", [(), []])
    def test_no_coefficients_is_zero(self, coeffs):
        p = ChromPoly(coeffs)
        assert p == ChromPoly() == ChromPoly((0,))
        assert hash(p) == hash(ChromPoly((0,)))
        assert p.degree == 0
        assert p.shift_divide() == ChromPoly()

    @pytest.mark.parametrize("coeffs", [(0.5, 1), (Fraction(1, 2), 1), (1, 2.25), ("3",)])
    def test_refuses_a_coefficient_that_is_not_an_integer(self, coeffs):
        with pytest.raises(ValueError, match="must be integers"):
            ChromPoly(coeffs)

    def test_keeps_integral_values_of_other_types(self):
        coeffs = ChromPoly((Fraction(4, 2), 1.0)).coeffs
        assert coeffs == (2, 1) and all(type(c) is int for c in coeffs)

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
        st.integers(-50, 50),
    )
    def test_arithmetic_matches_the_checked_constructor(self, a, b, k):
        p, q = ChromPoly(a), ChromPoly(b)
        n = max(len(a), len(b))
        a0, b0 = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        product = [sum(a[i] * b[j - i] for i in range(len(a)) if 0 <= j - i < len(b)) for j in range(len(a) + len(b) - 1)]
        for got, want in [
            (p + q, [x + y for x, y in zip(a0, b0)]),
            (p - q, [x - y for x, y in zip(a0, b0)]),
            (p - p, [0]),
            (p * q, product),
            (p * k, [k * x for x in a]),
            (k * p, [k * x for x in a]),
            (ChromPoly([0] + a).shift_divide(), a),
        ]:
            assert got.coeffs == ChromPoly(want).coeffs
            assert all(type(c) is int for c in got.coeffs)
        with pytest.raises(ValueError, match="must be integers"):
            ChromPoly((0.5, 1))

    def test_rows_match_closed_coefficients(self):
        stirling = [1]  # s(n, i), the signed Stirling numbers of the first kind, for n = 0
        for k in range(41):
            binomial = tuple(math.comb(k, i) * (-1) ** (k - i) for i in range(k + 1))
            assert csf_module._xm1_power(k).coeffs == binomial
            assert csf_module._falling(k).coeffs == tuple(stirling)
            assert csf_module._tree(k).coeffs == (0, *binomial)
            stirling = [(stirling[i - 1] if i else 0) - k * (stirling[i] if i <= k else 0) for i in range(k + 2)]

    def test_shift_divide(self):
        assert ChromPoly((0, -1, 1)).shift_divide() == ChromPoly((-1, 1))
        with pytest.raises(ArithmeticError):
            ChromPoly((1, 1)).shift_divide()

    def test_str(self):
        assert str(ChromPoly((0,))) == "0"
        assert str(ChromPoly((-1, 0, 1))) == "x^2 - 1"
        assert str(ChromPoly((2, -3, 1))) == "x^2 - 3*x + 2"
        for coeffs, text in [
            ((1,), "1"),
            ((-1,), "-1"),
            ((5,), "5"),
            ((-5,), "-5"),
            ((0, 1), "x"),
            ((0, -1), "-x"),
            ((1, 1), "x + 1"),
            ((-1, -1), "-x - 1"),
            ((-5, 1, 0, -1), "-x^3 + x - 5"),
            ((0, 0, -2), "-2*x^2"),
            ((5, 0, 1), "x^2 + 5"),
        ]:
            assert str(ChromPoly(coeffs)) == text

    def test_json(self):
        assert ChromPoly((2, -3, 1)).to_json_obj() == [2, -3, 1]

    def test_path_chromatic(self):
        # chi of a path: x(x-1)^(n-1)
        for n in range(1, 6):
            poly = chromatic_poly_dc(path_graph(n))
            for x in range(0, 6):
                assert poly(x) == x * (x - 1) ** (n - 1)

    def test_cycle_chromatic(self):
        for n in range(3, 7):
            poly = chromatic_poly_dc(cycle_graph(n))
            for x in range(0, 6):
                assert poly(x) == (x - 1) ** n + (-1) ** n * (x - 1)

    def test_complete_chromatic(self):
        poly = chromatic_poly_dc(complete_graph(4))
        assert [poly(x) for x in range(5)] == [0, 0, 0, 0, 24]

    @pytest.mark.parametrize(
        "spec",
        [
            "sun(3;1,1,1)",
            "sun(4;2,1,1,2)",
            "dumbbell(3,-1,3)",
            "dumbbell(3,0,4)",
            "dumbbell(4,2,4)",
            "cdumbbell(3,0,3)",
            "cdumbbell(4,1,3)",
            "cdumbbell(4,-1,4)",
            "sdumbbell(3,0,3)",
            "sdumbbell(4,1,3)",
            "sdumbbell(5,-1,4)",
        ],
    )
    def test_closed_matches_dc(self, spec):
        g = parse_graph_spec(spec).build()
        assert chromatic_poly_closed(spec) == chromatic_poly_dc(g)

    def test_semicomplete_dumbbells_with_the_larger_cycle(self):
        # the chromatic grid walks m <= n only, but sdumbbell(m,l,n) (C_m, K_n) is not symmetric
        triples = [(kw["m"], kw["l"], kw["n"]) for kw in _grid_dumbbell(14) if kw["m"] > kw["n"]]
        assert len(triples) == 95
        for m, l, n in triples:
            spec = f"sdumbbell({m},{l},{n})"
            g = parse_graph_spec(spec).build()
            assert chromatic_poly_closed(spec) == chromatic_poly_dc(g) == compute_chromatic(g)[0], spec

    def test_closed_rejects_other_families(self):
        with pytest.raises(ValueError):
            chromatic_poly_closed("path(4)")

    def test_known_values(self):
        assert chromatic_poly_closed("dumbbell(3,0,3)")(3) == 24
        assert chromatic_poly_closed("cdumbbell(4,1,3)")(2) == 0

    def test_evaluate_ones_is_chromatic(self):
        for g in SMALL_GRAPHS:
            if len(g.edges) > 14:
                continue
            f = e_csf(g)
            poly = chromatic_poly_dc(g)
            for n in range(0, 6):
                assert f.evaluate_ones(n) == poly(n)


class TestEngineRouting:
    def test_auto_prefers_closed_for_families(self):
        f, engine = compute_csf("dumbbell(3,1,3)")
        assert engine == "closed"
        assert f.basis is Basis.E

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        """Stand-ins for the subset DP and the deletion-contraction engine that
        record (engine, |E|) per call."""
        calls = []

        def subsets(n, edges, sizes=True):
            calls.append(("subsets", len(edges)))
            return {}

        def dc(g):
            calls.append(("dc", len(g.edges)))
            return SymFunc(Basis.P, g.n)

        monkeypatch.setattr(csf_module, "_subset_counts", subsets)
        monkeypatch.setattr(csf_module, "csf_dc", dc)
        return calls

    def test_bare_graph_uses_only_subsets(self, engine_calls):
        assert compute_csf(path_graph(CSF_EDGE_CAP + 1))[1] == "subsets"
        assert engine_calls == [("subsets", CSF_EDGE_CAP)]

    def test_spec_without_closed_form_builds_its_canonical_form(self, monkeypatch):
        built = []
        monkeypatch.setattr(csf_module, "_subset_counts", lambda n, e: built.append(Graph(n, e)) or _subset_counts(n, e))
        for text, canon in [("spider(6,5,2,1)", "spider(1,2,5,6)"), ("sun(4;1,4,6,2)", "sun(4;6,4,1,2)"),
                            ("csun(4;1,3,2,3)", "csun(4;3,3,2,1)")]:
            f, engine = compute_csf(text)
            assert engine == "subsets" and built.pop() == parse_graph_spec(canon).build()
            assert f == p_to_e(csf_subsets(parse_graph_spec(text).build()))

    def test_closed_spec_calls_no_engine(self, engine_calls):
        assert compute_csf("cdumbbell(4,1,4)")[1] == "closed"
        assert compute_csf(parse_graph_spec("complete(7)"))[1] == "closed"
        assert engine_calls == []

    def test_oracle_never_routes_closed(self):
        spec = parse_graph_spec("dumbbell(3,1,3)")
        f_closed, e1 = compute_csf(spec)
        f_oracle, e2 = compute_csf(spec.build())
        assert e1 == "closed" and e2 == "subsets"
        assert f_closed == f_oracle

    def test_engines_agree(self):
        spec = parse_graph_spec("tadpole(4,2)")
        g = spec.build()
        results = [
            compute_csf(spec)[0],
            closed_csf_for(spec),
            p_to_e(csf_subsets(g)),
            p_to_e(csf_dc(g)),
            compute_csf(g)[0],
        ]
        assert all(f == results[0] for f in results)

    def test_graph_route_is_p_to_e_of_the_decoded_table(self):
        # compute_csf takes the table to the e basis on count keys; csf_subsets decodes it first
        rng = random.Random(35)
        for _ in range(40):
            n = rng.randint(0, 14)
            pool = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pool, rng.randint(0, min(len(pool), CSF_EDGE_CAP)))
            label = list(range(n))
            rng.shuffle(label)
            for g in (Graph(n, edges), Graph(n, [(label[u], label[v]) for u, v in edges])):
                assert compute_csf(g)[0] == p_to_e(csf_subsets(g)), g.edge_list

    def test_spec_objects_and_strings_equivalent(self):
        spec = parse_graph_spec("cycle(5)")
        assert compute_csf(spec) == compute_csf("cycle(5)")

    def test_degree_of_closed_specs_matches_the_built_graph(self):
        # every spec of a closed-form family on at most 14 vertices (dumbbells
        # from l = -1), then specs of every other family: the |V| each
        # argument rule returns is that of the built graph
        for family in csf_module._CLOSED_FORMS:
            sizes = []
            for args in closed_arg_lists(family, range(-1, 15)):
                spec = GraphSpec(family, args)
                try:
                    spec.check()
                except ValueError:
                    continue
                n = spec.build().n
                if n <= 14:
                    assert spec.check() == csf_degree(spec) == n, spec
                    sizes.append(n)
            assert max(sizes) == 14, family
        others = [
            "spider(1)",
            "spider(3,1,2)",
            "sun(3;1,2,3)",
            "sun(5;1,1,1,1,4)",
            "csun(3;1,1,1)",
            "csun(4;2,1,1,3)",
            "line(path(1))",
            "line(complete(5))",
            "line(sun(3;1,1,1))",
            "line(line(spider(1,1,1)))",
            "line(dumbbell(3,-1,4))",
            "union(path(1),cycle(3))",
            "union(line(path(4)),union(edges[0:],cdumbbell(3,0,3)))",
            "edges[0:]",
            "edges[5:(0,1),(3,4)]",
        ]
        for text in others:
            spec = parse_graph_spec(text)
            assert spec.check() == csf_degree(spec) == spec.build().n, text
        families = {parse_graph_spec(text).family for text in others}
        assert families | set(csf_module._CLOSED_FORMS) == set(_FAMILY_TABLE)

    def test_closed_csf_for_coverage(self):
        for text in ("sun(4;1,1,1,1)", "csun(5;1,1,1,1,1)", "spider(1,1,1,1)"):
            assert closed_csf_for(parse_graph_spec(text)) is None, text
        for text in ("path(4)", "sun(3;1,1,1)", "csun(3;1,2,1)", "spider(1,1,1)", "spider(2)"):
            assert closed_csf_for(parse_graph_spec(text)) is not None, text


class TestGuards:
    def test_subset_cap_default(self):
        g = complete_graph(8)  # 28 edges
        assert len(g.edges) > CSF_EDGE_CAP
        with pytest.raises(ValueError):
            csf_subsets(g)

    def test_dc_cap(self):
        g = complete_graph(8)  # 28 edges
        with pytest.raises(ValueError, match="guarded at 26 edges, graph has 28"):
            csf_dc(g)

    @pytest.mark.parametrize(
        "engine, kernel", [(csf_subsets, "_subset_counts"), (csf_dc, "_deletion_contraction")]
    )
    def test_vertex_cap_before_any_work(self, monkeypatch, engine, kernel):
        assert DEFAULT_ENUMERATION_CAP == 40
        assert engine(Graph(40, [(0, 1)])).degree == 40
        monkeypatch.setattr(csf_module, kernel, lambda *a, **k: pytest.fail(f"{kernel} ran"))
        for n in (41, 3000, 10**8):
            with pytest.raises(ValueError, match=f"guarded at 40 vertices, graph has {n}$"):
                engine(Graph(n, [(0, 1)]))

    def test_closed_forms_vertex_cap_before_any_arithmetic(self, monkeypatch):
        assert csf_complete_closed(40).coefficient((40,)) == math.factorial(40)
        for name in ("factorial", "_series", "_eliminate"):
            monkeypatch.setattr(csf_module, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        cases = [
            (csf_complete_closed, (41,), 41),
            (csf_complete_closed, (1600,), 1600),
            (csf_path_closed, (41,), 41),
            (csf_cycle_closed, (41,), 41),
            (csf_cycle_closed, (1000000,), 1000000),
            (csf_tadpole_closed, (40, 1), 41),
            (csf_lollipop_closed, (1000000, 0), 1000000),
            (csf_dumbbell_closed, (3, 35, 3), 41),
            (csf_complete_dumbbell_closed, (1000000, 0, 3), 1000003),
            (csf_semicomplete_dumbbell_closed, (3, -1, 39), 41),
        ]
        for fn, args, n in cases:
            with pytest.raises(ValueError, match=f"^closed form guarded at 40 vertices, graph has {n}$"):
                fn(*args)

    @pytest.mark.parametrize("bad", [2.5, 5.0])
    def test_closed_forms_refuse_non_integers(self, bad):
        # each form runs on integers first, so a memo that took 5.0 for 5 would answer
        for family, form in csf_module._CLOSED_FORMS.items():
            for args in closed_arg_lists(family, (5, bad)):  # each shape's all-integer list comes first
                sizes = args[1] if family in ("sun", "csun") else args
                if all(type(x) is int for x in sizes):
                    form(*args)
                    continue
                with pytest.raises(ValueError, match=f"^arguments must be integers, got {bad}$"):
                    form(*args)

    def test_chromatic_cap(self):
        g = line_graph(complete_graph(6))  # one 60-edge block over the default cap, not a clique
        assert len(g.edges) > DEFAULT_CHROMPOLY_EDGE_CAP
        with pytest.raises(ValueError):
            chromatic_poly_dc(g)
        assert chromatic_poly_dc(complete_graph(10)) == math.prod(ChromPoly((-k, 1)) for k in range(10))

    @pytest.mark.parametrize("route", [chromatic_poly_dc, lambda g: compute_chromatic(g)[0]], ids=["dc", "subsets"])
    def test_chromatic_edge_bound_is_per_evaluated_block(self, route):
        """Bridges and clique blocks close by rows, so only the other blocks
        meet the edge bound, and the vertex bound on the whole graph comes first."""
        assert route(complete_graph(10)) == math.prod(ChromPoly((-k, 1)) for k in range(10))
        g = dumbbell_graph(10, 0, 10, kind="complete")
        assert len(g.edges) == 91
        assert route(g) == chromatic_poly_closed("cdumbbell(10,0,10)")
        with pytest.raises(ValueError, match="^chromatic recursion guarded at 40 edges in one block, graph has 60$"):
            route(line_graph(complete_graph(6)))
        with pytest.raises(ValueError, match="^chromatic polynomial guarded at 40 vertices, graph has 41$"):
            route(complete_graph(41))

    def test_chromatic_vertex_cap(self):
        assert chromatic_poly_dc(path_graph(40)).degree == 40
        assert chromatic_poly_closed("sun(3;13,12,12)").degree == 40
        with pytest.raises(ValueError, match="guarded at 40 vertices, graph has 41$"):
            chromatic_poly_dc(path_graph(41))
        for spec, n in (("dumbbell(3,4000,3)", 4006), ("sun(3;13,13,13)", 42)):
            with pytest.raises(ValueError, match=f"guarded at 40 vertices, graph has {n}$"):
                chromatic_poly_closed(spec)


# ------------------------------------------------------------- properties


@st.composite
def random_graphs(draw):
    """Graphs on at most 8 vertices with at most 13 edges, so the subset walk stays small."""
    n = draw(st.integers(0, 8))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.sets(st.integers(0, max(len(pool) - 1, 0)), max_size=min(len(pool), 13)))
    return Graph(n, [pool[i] for i in picks])


@st.composite
def glued_graphs(draw):
    """Cliques and cycles glued one at a time at a cut vertex, on at most 8 vertices."""
    n, edges = 1, []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("clique", "cycle")))
        size = draw(st.integers(2, 4) if kind == "clique" else st.integers(3, 5))
        if n + size - 1 > 8:
            break
        ring = [draw(st.integers(0, n - 1))] + list(range(n, n + size - 1))
        n += size - 1
        if kind == "clique":
            edges += [(u, v) for i, u in enumerate(ring) for v in ring[i + 1:]]
        else:
            edges += list(zip(ring, ring[1:] + ring[:1]))
    return Graph(n, edges)


@st.composite
def line_graphs(draw):
    """Line graphs of random graphs, on at most 10 vertices and ``CSF_EDGE_CAP``
    edges.  Their vertices' later neighbours nest, so the subset DP merges the
    blocks of such a graph most."""
    g = draw(random_graphs())
    edges = list(g.edge_list)[:10]
    while len(line_graph(Graph(g.n, edges)).edges) > CSF_EDGE_CAP:
        edges.pop()
    return line_graph(Graph(g.n, edges))


def count_colourings(g, k):
    """Proper k-colourings of g, by backtracking over each component in BFS order."""
    adj = g.adjacency()
    total = 1
    for comp in g.components():
        order = [comp[0]]
        for v in order:  # the list grows while it is walked: a BFS
            order += [u for u in adj[v] if u not in order]
        pos = {v: i for i, v in enumerate(order)}
        earlier = [[pos[u] for u in adj[v] if pos[u] < pos[v]] for v in order]
        colour = [None] * len(order)

        def extend(i):
            if i == len(order):
                return 1
            count = 0
            for c in range(k):
                if all(colour[j] != c for j in earlier[i]):
                    colour[i] = c
                    count += extend(i + 1)
            return count

        total *= extend(0)
    return total


class TestEngineProperties:
    @settings(deadline=None, max_examples=50)
    @given(st.one_of(random_graphs(), glued_graphs()), st.randoms(use_true_random=False))
    def test_dc_matches_subsets_and_colourings(self, g, rnd):
        edges = list(g.edge_list)
        rnd.shuffle(edges)
        assert sized_table(g.n, g.edge_list) == walk_subset_counts(g.n, edges)
        subsets = csf_subsets(g)
        assert bond_sign_violations(subsets) == []
        assert csf_dc(g) == subsets
        chi = chromatic_poly_dc(g)
        e_form = p_to_e(subsets)
        for k in range(5):
            assert chi(k) == e_form.evaluate_ones(k) == count_colourings(g, k)

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(random_graphs(), glued_graphs()))
    def test_subset_table_weight_is_acyclic_orientations(self, g):
        # leaves sharing a key share |S|, hence a sign, so no two leaves cancel
        table = _subset_counts(g.n, g.edge_list)
        assert sum(abs(c) for c in table.values()) == abs(chromatic_poly_dc(g)(-1))

    @pytest.mark.parametrize("spec,orientations", [("complete(7)", 5040), ("cdumbbell(4,2,5)", 23040)])
    def test_subset_table_weight_fixed(self, spec, orientations):
        g = parse_graph_spec(spec).build()
        assert sum(abs(c) for c in _subset_counts(g.n, g.edge_list).values()) == orientations

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(random_graphs(), glued_graphs()), st.randoms(use_true_random=False))
    def test_subset_table_ignores_vertex_labels(self, g, rnd):
        label = list(range(g.n))
        rnd.shuffle(label)
        relabelled = [(label[u], label[v]) for u, v in g.edge_list]
        rnd.shuffle(relabelled)
        assert _subset_counts(g.n, relabelled) == _subset_counts(g.n, g.edge_list)

    def test_subset_table_edge_cases(self):
        assert sized_table(0, []) == {(): 1}
        assert sized_table(1, []) == {(1,): 1}
        assert sized_table(2, []) == {(1, 1): 1}
        for n, edges in [(0, []), (1, []), (3, []), (4, [(2, 3)]), (5, [(3, 1), (4, 1), (3, 4)])]:
            assert sized_table(n, edges) == walk_subset_counts(n, edges)
        assert csf_subsets(Graph(0, [])) == SymFunc(Basis.P, 0, {Partition([]): 1})
        isolated = disjoint_union(path_graph(1), path_graph(1))
        assert csf_subsets(isolated) == SymFunc.single(Basis.P, Partition([1, 1]))

    def test_dc_path_calls_no_closed_form(self, monkeypatch):
        spec = "cdumbbell(4,1,4)"
        g = parse_graph_spec(spec).build()
        expected = (csf_subsets(g), chromatic_poly_closed(spec))
        for name in list(vars(csf_module)):
            if name.endswith("_closed"):
                monkeypatch.setattr(csf_module, name, None)  # any call raises TypeError
        monkeypatch.setattr(csf_module, "closed_csf_for", None)

        def refuse(*args):
            pytest.fail("closed form on the deletion-contraction path")

        monkeypatch.setattr(csf_module, "_CLOSED_FORMS", dict.fromkeys(csf_module._CLOSED_FORMS, refuse))
        assert (csf_dc(g), chromatic_poly_dc(g)) == expected


def oracle_graphs(monkeypatch, names, cap):
    """Every graph the named identities' grids name, as its spec builds it and
    before ``_oracle`` takes its canonical form, and every graph they ask
    ``identities._memo`` for directly, with both stubbed to a zero function so
    no CSF is computed."""
    seen = {}

    def record(g):
        seen[g] = None
        return SymFunc(Basis.E, g.n, {})

    monkeypatch.setattr(identities, "_memo", record)
    monkeypatch.setattr(identities, "_oracle", lambda spec: record(spec.build()))
    for name in names:
        identities.run_grid(name, cap)
    return list(seen)


class TestSubsetCountsMatchBreadthFirst:
    def test_full_csf_grids(self, monkeypatch):
        names = ("dumbbell_recursion", "cdumbbell_recursion", "sun_spider_reduction", "triple_deletion")
        graphs = oracle_graphs(monkeypatch, names, 12)
        assert len(graphs) == 285
        for g in graphs:
            assert sized_table(g.n, g.edge_list) == ref_subset_counts(g.n, g.edge_list), g.edge_list

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(random_graphs(), glued_graphs(), line_graphs()))
    def test_random_and_glued_graphs(self, g):
        assert sized_table(g.n, g.edge_list) == ref_subset_counts(g.n, g.edge_list)


def generic_subset_counts(n, edges, sizes=True):
    """Reference for ``_subset_counts``: its generic step on every state, in
    vertex-index order, which changes only the frontier width.  v joins k of
    the m equal adjacent blocks with weight C(m, k) (-1)^k, one block being
    the case m = 1; no state takes a shortcut."""
    adj = Graph(n, edges).adjacency()
    unit = _count_keys(n)[0] if sizes else [1]
    one = 1 if sizes else 0
    states = {(): {0: 1}}
    for t, nbrs in enumerate(adj):
        bit, own = 1 << t, sum(1 << y for y in nbrs if y > t)
        nxt = {}
        for state, table in states.items():
            succ = [(1, one, own, 0, [b for b in state if not b[1] & bit])]
            for (s, mask), m in Counter(b for b in state if b[1] & bit).items():
                after = mask ^ bit
                stay, shut = ([(s, after)], 0) if after else ([], unit[s])
                succ = [(w * math.comb(m, k) * (-1) ** k, size + k * s, joined | after if k else joined,
                         g + (m - k) * shut, blocks + stay * (m - k))
                        for w, size, joined, g, blocks in succ for k in range(m + 1)]
            for w, size, joined, g, blocks in succ:
                if joined:
                    blocks = blocks + [(size, joined)]
                else:
                    g += unit[size]
                out = nxt.setdefault(tuple(sorted(blocks)), {})
                for closed, c in table.items():
                    out[closed + g] = out.get(closed + g, 0) + w * c
        states = nxt
    return states[()]


def subset_steps(n, edges, sizes=True) -> set:
    """The steps ``_subset_counts`` takes: ``"generic"``, and ``"one stays"``
    or ``"one closes"`` for a state with one block adjacent to v, read by a
    line tracer from the statement that builds the lone block's successors."""
    lines, first = inspect.getsourcelines(_subset_counts)
    one = first + next(i for i, line in enumerate(lines) if "succ = ((1, one, own, 0, far + [(s, after)])" in line)
    generic = first + next(i for i, line in enumerate(lines) if "adjacent = {}" in line)
    seen = set()

    def trace(frame, event, arg):
        if frame.f_code is not _subset_counts.__code__:
            return None
        if event == "line" and frame.f_lineno == one:
            seen.add("one stays" if frame.f_locals["after"] else "one closes")
        elif event == "line" and frame.f_lineno == generic:
            seen.add("generic")
        return trace

    sys.settrace(trace)
    try:
        _subset_counts(n, edges, sizes)
    finally:
        sys.settrace(None)
    return seen


class TestOneBlockStep:
    """A state with one block adjacent to v takes a shortcut past the generic
    step; the tables must not tell them apart."""

    @pytest.mark.parametrize("sizes", [True, False], ids=["sizes", "components"])
    @pytest.mark.parametrize("g", SMALL_GRAPHS + [line_graph(complete_graph(4)), dumbbell_graph(4, 1, 5, kind="complete")])
    def test_equals_the_generic_step(self, g, sizes):
        assert _subset_counts(g.n, g.edge_list, sizes) == generic_subset_counts(g.n, g.edge_list, sizes)

    @pytest.mark.parametrize("sizes", [True, False], ids=["sizes", "components"])
    def test_every_step_is_reached(self, sizes):
        steps = set()
        for g in (path_graph(3), cycle_graph(5), complete_graph(4), sun_graph(3, (2, 1, 1))):
            steps |= subset_steps(g.n, g.edge_list, sizes)
        assert steps == {"generic", "one stays", "one closes"}
        # a path's middle vertex meets one block, whose last neighbour it is
        assert "one closes" in subset_steps(3, [(0, 1), (1, 2)], sizes)

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(random_graphs(), glued_graphs(), line_graphs()), st.booleans())
    def test_random_and_glued_graphs(self, g, sizes):
        assert _subset_counts(g.n, g.edge_list, sizes) == generic_subset_counts(g.n, g.edge_list, sizes)


def assert_is_the_csf_table(g, table):
    """Checks of a subset table against deletion-contraction and the bond lattice."""
    f = SymFunc(Basis.P, g.n, table)
    chi = chromatic_poly_dc(g)
    assert [f.evaluate_ones(k) for k in range(6)] == [chi(k) for k in range(6)]
    assert bond_sign_violations(f) == []
    assert sum(abs(c) for c in table.values()) == abs(chi(-1))


class TestLargeSparseGraphs:
    """Graphs whose frontier stays narrow in depth-first order only."""

    @pytest.mark.parametrize("spec", ["spider(5,5,5,5,5,1)", "sun(6;3,3,3,3,3,3)"])
    def test_spider_and_sun(self, spec):
        g = parse_graph_spec(spec).build()
        start = time.perf_counter()
        f = csf_subsets(g)
        assert time.perf_counter() - start < 1
        assert_is_the_csf_table(g, f.terms)

    def test_path_40(self):
        g = path_graph(40)
        assert_is_the_csf_table(g, sized_table(g.n, g.edge_list))


@st.composite
def twin_graphs(draw):
    """Random and glued graphs blown up by one to four twins, each a new vertex
    with the neighbours of an old one, joined to it (a true twin) or not (a
    false twin), kept to at most 10 vertices and ``CSF_EDGE_CAP`` edges, so
    the subset walk stays small."""
    g = draw(st.one_of(random_graphs(), glued_graphs()).filter(lambda g: g.n > 0))
    n, edges = g.n, list(g.edge_list)
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.integers(0, n - 1))
        twin = [(u if v == x else v, n) for u, v in edges if x in (u, v)]
        twin += [(x, n)] if draw(st.booleans()) else []
        if n == 10 or len(edges) + len(twin) > CSF_EDGE_CAP:
            break
        n, edges = n + 1, edges + twin
    return Graph(n, edges)


class TestTwinRichGraphs:
    """Graphs whose blocks the subset DP merges as twins, against both references."""

    @settings(deadline=None, max_examples=25)
    @given(twin_graphs())
    def test_blown_up_graphs(self, g):
        table = sized_table(g.n, g.edge_list)
        assert table == ref_subset_counts(g.n, g.edge_list)
        assert table == walk_subset_counts(g.n, g.edge_list)

    @pytest.mark.parametrize(
        "g",
        [complete_graph(7), disjoint_union(complete_graph(4), complete_graph(5)),
         Graph(7, [(i, j) for i in range(3) for j in range(3, 7)]),
         parse_graph_spec("csun(7;1,1,1,1,1,1,1)").build(), parse_graph_spec("line(complete(5))").build()],
        ids=["K7", "K4+K5", "K3,4", "csun(7;1^7)", "line(K5)"],
    )
    def test_fixed_graphs(self, g):
        # called directly: the last two are over the edge cap of csf_subsets
        table = sized_table(g.n, g.edge_list)
        assert table == ref_subset_counts(g.n, g.edge_list)
        assert_is_the_csf_table(g, table)


def grid_graph(rows, cols):
    """The rows x cols grid, vertex r * cols + c at row r and column c."""
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, right + down)


def is_connected(edges) -> bool:
    """Whether the endpoints of a nonempty edge set form one component."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen, stack = set(), [next(iter(adj))]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack += adj[x]
    return len(seen) == len(adj)


def chromatic_grid_graphs(cap):
    return [parse_graph_spec(kw["target"]).build() for kw in iter_grid("chromatic_closed_forms", cap)]


class TestChromaticRoutes:
    """``compute_chromatic``'s subset route against deletion-contraction, and
    the connectivity that ``_close_chromatic`` relies on."""

    def test_grid_matches_dc(self):
        graphs = chromatic_grid_graphs(14)
        assert len(graphs) == 905
        for g in graphs:
            poly, engine = compute_chromatic(g)
            assert engine == "subsets"
            assert poly == chromatic_poly_dc(g), g.edge_list

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(random_graphs(), glued_graphs(), twin_graphs(), line_graphs()))
    def test_random_graphs_match_dc(self, g):
        poly = chromatic_poly_dc(g)
        assert compute_chromatic(g) == (poly, "subsets")
        # the whole graph, without the block split
        table = _subset_counts(g.n, g.edge_list, sizes=False)
        assert table == {k: c for k, c in enumerate(poly.coeffs) if c}

    @pytest.mark.parametrize(
        "g", [parse_graph_spec("line(complete(5))").build(), grid_graph(4, 5)], ids=["line(K5)", "grid(4,5)"]
    )
    def test_without_dc(self, g):
        # deletion-contraction takes seconds on both: check P_G(k) = X_G(1^k) from the sized table
        poly, engine = compute_chromatic(g)
        assert engine == "subsets"
        table = sized_table(g.n, g.edge_list)
        assert [poly(k) for k in range(6)] == [sum(c * k ** len(lam) for lam, c in table.items()) for k in range(6)]

    def test_spec_routes_to_subsets(self):
        assert compute_chromatic("line(complete(5))")[1] == "subsets"
        assert compute_chromatic("cycle(3)") == (ChromPoly((0, 2, -3, 1)), "subsets")
        assert compute_chromatic("cdumbbell(3,0,3)")[1] == "closed"

    def test_triangle_beside_an_edge(self):
        # |E| = 4 = |V| - 1, yet no tree: P = x(x-1)(x-2) * x(x-1)
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        expected = ChromPoly((0, -1, 1)) * ChromPoly((0, 2, -3, 1))
        assert chromatic_poly_dc(g) == compute_chromatic(g)[0] == expected
        assert [expected(k) for k in range(5)] == [count_colourings(g, k) for k in range(5)]
        # on the disconnected edge set itself the tree test misfires
        assert csf_module._close_chromatic(frozenset(((u,), (v,)) for u, v in g.edge_list)) != expected

    @staticmethod
    @contextlib.contextmanager
    def closings():
        """Every edge set ``_close_chromatic`` receives, checked connected as it
        arrives.  Both block memos start empty, so the kernel runs inside."""
        clear_block_memos()
        seen = []
        close = csf_module._close_chromatic

        def checked(edges):
            assert is_connected(edges), sorted(edges)
            seen.append(edges)
            return close(edges)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csf_module, "_close_chromatic", checked)
            yield seen

    @staticmethod
    def cycle_blocks(g) -> int:
        """The blocks of g that are no bridge: each route asks ``_close_chromatic`` about each."""
        return sum(len(block) > 1 for blocks in csf_module._biconnected(g.edges) for block in blocks)

    def test_closings_see_connected_sets_on_the_grid(self):
        graphs = chromatic_grid_graphs(10)
        with self.closings() as seen:
            for g in graphs:
                chromatic_poly_dc(g)
                compute_chromatic(g)
        assert len(seen) >= 2 * sum(map(self.cycle_blocks, graphs)) > 0

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(random_graphs(), glued_graphs()))
    def test_closings_see_connected_sets_on_random_graphs(self, g):
        with self.closings() as seen:
            assert chromatic_poly_dc(g) == compute_chromatic(g)[0]
        assert len(seen) >= 2 * self.cycle_blocks(g)


def cycle_mates(edges) -> set:
    """Every ordered pair of distinct edges that lie on one simple cycle, by
    walking each simple cycle from its least vertex (in both directions)."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    mates = set()

    def walk(path):
        for y in adj[path[-1]]:
            if y == path[0] and len(path) > 2:
                cycle = [tuple(sorted(e)) for e in zip(path, path[1:] + path[:1])]
                mates.update(itertools.permutations(cycle, 2))
            elif y > path[0] and y not in path:
                walk(path + [y])

    for s in adj:
        walk([s])
    return mates


class TestBlockSplit:
    """``_biconnected``, the block split of both chromatic routes and of the
    kernel, against a brute force over simple cycles."""

    @staticmethod
    def check(g):
        components = csf_module._biconnected(g.edge_list)
        # one entry per component that has an edge, its blocks partitioning its edges
        vertex_sets = [sorted({x for block in blocks for e in block for x in e}) for blocks in components]
        assert sorted(vertex_sets) == [c for c in g.components() if len(c) > 1]
        assert sorted(e for blocks in components for block in blocks for e in block) == g.edge_list
        # two edges share a block exactly when a simple cycle holds both
        shared = {(e, f) for blocks in components for block in blocks for e in block for f in block if e != f}
        assert shared == cycle_mates(g.edge_list)
        return sorted(sorted(map(len, blocks)) for blocks in components)

    @pytest.mark.parametrize(
        "g, shape",
        [
            (Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]), [[3, 3]]),
            (spider_graph((2, 2, 1)), [[1, 1, 1, 1, 1]]),
            (disjoint_union(cycle_graph(3), cycle_graph(3)), [[3], [3]]),
            (complete_graph(4), [[6]]),
            (Graph(7, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (0, 5), (5, 6), (6, 1)]), [[8]]),
        ],
        ids=["bowtie", "tree", "two triangles", "K4", "theta(3,2,3)"],
    )
    def test_fixed_graphs(self, g, shape):
        assert self.check(g) == shape

    @settings(deadline=None, max_examples=100)
    @given(random_graphs())
    def test_random_graphs(self, g):
        self.check(g)


def clear_block_memos():
    csf_module._dc_block.cache_clear()
    csf_module._subsets_block.cache_clear()


def component_labels(g, removed=None):
    """A component label for every vertex of g other than ``removed``."""
    adj, label = g.adjacency(), {}
    for s in range(g.n):
        if s == removed or s in label:
            continue
        label[s], stack = s, [s]
        while stack:
            for y in adj[stack.pop()]:
                if y != removed and y not in label:
                    label[y] = s
                    stack.append(y)
    return label


def blocks_by_cut_vertices(g):
    """The 2-connected blocks of g, without a DFS: two edges share a block iff
    they share a component and no vertex w parts them, that is, their
    endpoints other than w lie in one component of G - w."""
    labels = [component_labels(g, w) for w in range(g.n)]
    whole = component_labels(g)

    def sides(e):
        return whole[e[0]], *(labels[w][e[1] if e[0] == w else e[0]] for w in range(g.n))

    blocks = {}
    for e in g.edge_list:
        blocks.setdefault(sides(e), []).append(e)
    return list(blocks.values())


def open_block_keys(g):
    """The renumbered key of every block of g that is neither a bridge nor a clique."""
    keys = []
    for block in blocks_by_cut_vertices(g):
        vertices = sorted({x for e in block for x in e})
        if len(block) > 1 and 2 * len(block) != len(vertices) * (len(vertices) - 1):
            index = {v: i for i, v in enumerate(vertices)}
            keys.append(tuple(sorted((index[a], index[b]) for a, b in block)))
    return keys


class TestBlockMemo:
    """Each route evaluates a block that does not close once per renumbered
    block, in a memo of its own."""

    @staticmethod
    def counted(monkeypatch, name):
        """Record the first argument of every call of the named ``csf`` function."""
        calls, fn = [], getattr(csf_module, name)
        monkeypatch.setattr(csf_module, name, lambda first, *a, **k: calls.append(first) or fn(first, *a, **k))
        return calls

    def test_kernel_once_per_block_shape_on_the_grid(self, monkeypatch):
        graphs = chromatic_grid_graphs(14)
        keys = [key for g in graphs for key in open_block_keys(g)]
        assert (len(set(keys)), len(keys)) == (9, 620)
        runs = self.counted(monkeypatch, "_deletion_contraction")
        clear_block_memos()
        for g in graphs:
            chromatic_poly_dc(g)
        info = csf_module._dc_block.cache_info()
        assert len(runs) == info.misses == info.currsize == len(set(keys))
        assert info.hits + info.misses == len(keys)

    def test_a_cycle_block_and_the_cycle_share_an_entry(self):
        g = Graph(12, [(i, i + 1) for i in range(7)] + [(7 + i, 7 + (i + 1) % 5) for i in range(5)])
        assert open_block_keys(g) == open_block_keys(cycle_graph(5)) == [((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))]
        clear_block_memos()
        for route, memo in ((chromatic_poly_dc, csf_module._dc_block), (compute_chromatic, csf_module._subsets_block)):
            route(g)
            route(cycle_graph(5))
            info = memo.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        expected = ChromPoly((0, 4, -10, 10, -5, 1))  # P(C_5), times (x-1) for each path edge
        for _ in range(7):
            expected = expected * ChromPoly((-1, 1))
        assert chromatic_poly_dc(g) == compute_chromatic(g)[0] == expected

    def test_routes_keep_their_own_memo(self, monkeypatch):
        g = sun_graph(4, (1, 2, 1, 2))
        kernel = self.counted(monkeypatch, "_deletion_contraction")
        subsets = self.counted(monkeypatch, "_subset_counts")
        for first, second in ((compute_chromatic, chromatic_poly_dc), (chromatic_poly_dc, compute_chromatic)):
            clear_block_memos()
            assert first(g) and second(g)
        assert (len(kernel), len(subsets)) == (2, 2)


class TestBondLattice:
    """Consequences of X_G = sum_{pi in L_G} mu(0, pi) p_type(pi) over the bond
    lattice L_G, the set partitions of V(G) into connected blocks."""

    @pytest.mark.parametrize(
        "spec",
        ["path(1)", "path(6)", "cycle(7)", "complete(5)", "tadpole(4,3)", "lollipop(5,2)"]
        + [f"{kind}({m},{l},{n})" for kind in ("dumbbell", "cdumbbell", "sdumbbell")
           for m, l, n in [(3, -1, 4), (3, 0, 3), (4, 1, 3)]],
    )
    def test_p_signs_on_every_route(self, spec):
        spec = parse_graph_spec(spec)
        g = spec.build()
        for f in (csf_subsets(g), csf_dc(g), e_to_p(closed_csf_for(spec))):
            assert f.degree == g.n and f.terms
            assert bond_sign_violations(f) == []

    def test_scan_is_the_missing_p_support(self):
        specs = list(_sun_specs(10))
        specs += [f"spider({a},{b},{c})" for a in range(1, 8) for b in range(1, a + 1)
                  for c in range(1, b + 1) if a + b + c <= 9]
        specs += [f"dumbbell({m},{l},{n})" for m, l, n in _canonical_dumbbell_triples(10)]
        assert len(specs) == 108
        for spec in specs:
            g = parse_graph_spec(spec).build()
            support = csf_subsets(g).terms
            assert missing_partition_scan(g) == [lam for lam in partitions_of(g.n) if lam not in support], spec

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(random_graphs(), glued_graphs()))
    def test_scan_is_the_missing_p_support_on_random_graphs(self, g):
        support = csf_subsets(g).terms
        missing = missing_partition_scan(g)
        assert missing == [lam for lam in partitions_of(g.n) if lam not in support]
        for lam in partitions_of(g.n):
            w = has_connected_partition(g, lam)
            assert (w is None) == (lam in missing)
            if w is None:
                continue
            assert Partition(len(b) for b in w.blocks) == lam
            assert sorted(v for block in w.blocks for v in block) == list(range(g.n))
            for block in w.blocks:
                assert list(block) == sorted(block)
                local = {v: i for i, v in enumerate(block)}
                induced = [(local[u], local[v]) for u, v in g.edges if u in local and v in local]
                assert len(Graph(len(block), induced).components()) == 1
