import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromsym import csf as csf_module
from chromsym.csf import (
    CSF_EDGE_CAP,
    DEFAULT_CHROMPOLY_EDGE_CAP,
    ChromPoly,
    _subset_counts,
    chromatic_poly_closed,
    chromatic_poly_dc,
    closed_csf_for,
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
    lollipop_graph,
    parse_graph_spec,
    path_graph,
    spider_graph,
    sun_graph,
    tadpole_graph,
)
from chromsym.identities import _canonical_dumbbell_triples, _sun_specs
from chromsym.partitions import DEFAULT_ENUMERATION_CAP, Partition, partitions_of
from chromsym.positivity import has_connected_partition, missing_partition_scan
from chromsym.symfunc import Basis, SymFunc, e_to_p, p_to_e

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
        """Stand-ins for both CSF engines that record (engine, |E|) per call."""
        calls = []

        def stand_in(name):
            def record(g):
                calls.append((name, len(g.edges)))
                return SymFunc.zero(Basis.P, g.n)

            return record

        monkeypatch.setattr(csf_module, "csf_subsets", stand_in("subsets"))
        monkeypatch.setattr(csf_module, "csf_dc", stand_in("dc"))
        return calls

    def test_bare_graph_uses_only_subsets(self, engine_calls):
        assert compute_csf(path_graph(CSF_EDGE_CAP + 1))[1] == "subsets"
        assert engine_calls == [("subsets", CSF_EDGE_CAP)]

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

    def test_spec_objects_and_strings_equivalent(self):
        spec = parse_graph_spec("cycle(5)")
        assert compute_csf(spec) == compute_csf("cycle(5)")

    def test_degree_of_closed_specs_matches_the_built_graph(self):
        # every spec of a closed-form family on at most 14 vertices
        for family in csf_module._CLOSED_FORMS:
            arity = _FAMILY_TABLE[family][0]
            sizes = []
            for args in itertools.product(range(-1, 15), repeat=arity):
                spec = GraphSpec(family, args)
                try:
                    spec.check()
                except ValueError:
                    continue
                n = spec.build().n
                if n <= 14:
                    assert csf_degree(spec) == n, spec
                    sizes.append(n)
            assert max(sizes) == 14, family

    def test_closed_csf_for_coverage(self):
        assert closed_csf_for(parse_graph_spec("sun(3;1,1,1)")) is None
        assert closed_csf_for(parse_graph_spec("path(4)")) is not None


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

    def test_chromatic_cap(self):
        g = complete_graph(10)  # 45 edges over the default cap
        assert len(g.edges) > DEFAULT_CHROMPOLY_EDGE_CAP
        with pytest.raises(ValueError):
            chromatic_poly_dc(g)


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
        assert _subset_counts(g.n, g.edge_list) == walk_subset_counts(g.n, edges)
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
        assert _subset_counts(0, []) == {(): 1}
        assert _subset_counts(1, []) == {(1,): 1}
        assert _subset_counts(2, []) == {(1, 1): 1}
        for n, edges in [(0, []), (1, []), (3, []), (4, [(2, 3)]), (5, [(3, 1), (4, 1), (3, 4)])]:
            assert _subset_counts(n, edges) == walk_subset_counts(n, edges)
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
        specs = [spec for _, spec in _sun_specs(10)]
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
            assert w.type() == lam
            assert sorted(v for block in w.blocks for v in block) == list(range(g.n))
            for block in w.blocks:
                assert list(block) == sorted(block)
                local = {v: i for i, v in enumerate(block)}
                induced = [(local[u], local[v]) for u, v in g.edges if u in local and v in local]
                assert len(Graph(len(block), induced).components()) == 1
