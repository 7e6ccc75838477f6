import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_csf import glued_graphs, random_graphs

from chromsym import positivity
from chromsym.csf import CSF_EDGE_CAP
from chromsym.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    parse_graph_spec,
    path_graph,
    spider_graph,
    sun_graph,
)
from chromsym.identities import _canonical_dumbbell_triples
from chromsym.partitions import Partition, partitions_of
from chromsym.positivity import (
    DEFAULT_SCAN_VERTEX_CAP,
    ConnectedPartitionWitness,
    PositivityReport,
    _connected_blocks,
    _neighbour_masks,
    _spanning_path,
    e_positivity,
    gcd_missing_type,
    has_connected_partition,
    missing_partition_scan,
    s_positivity,
    spider_nonpositivity_criterion,
    sun_matching_criterion,
    triangle_sun_missing_type,
    uniform_sun_coefficient,
    uniform_sun_missing_type,
)


def adjacency(g):
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edge_list:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected_subsets_brute(g, start, size, allowed):
    """All connected size-k vertex sets containing start, by filtering combinations."""
    out = set()
    rest = sorted(allowed - {start})
    for combo in itertools.combinations(rest, size - 1):
        vs = frozenset(combo) | {start}
        if Graph(g.n, [e for e in g.edge_list if e[0] in vs and e[1] in vs]) and _is_connected_on(
            g, vs
        ):
            out.add(vs)
    return out


def _is_connected_on(g, vs):
    vs = set(vs)
    seen = {next(iter(vs))}
    stack = list(seen)
    adj = adjacency(g)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def ref_missing_partition_scan(g):
    """The scan as one full search per type, coarsest first, sharing one failure record."""
    nbr, failed = _neighbour_masks(g), set()
    return [lam for lam in partitions_of(g.n) if positivity._search(nbr, tuple(lam), (1 << g.n) - 1, failed) is None]


def count_search_calls(monkeypatch):
    """Route ``positivity._search`` through a counter; returns the one-item count list."""
    calls = [0]
    search = positivity._search

    def counting(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(positivity, "_search", counting)
    return calls


def mask(vs):
    return sum(1 << v for v in vs)


def mask_vertices(m):
    return frozenset(v for v in range(m.bit_length()) if m >> v & 1)


class TestConnectedBlocks:
    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(3, 8)
            pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph(n, rng.sample(pool, k=rng.randint(n - 1, len(pool))))
            start = rng.randrange(n)
            allowed = set(range(n)) if rng.random() < 0.5 else {start} | set(rng.sample(range(n), n // 2))
            size = rng.randint(1, len(allowed))
            got = list(_connected_blocks(_neighbour_masks(g), start, size, mask(allowed)))
            assert len(got) == len(set(got))  # each block exactly once
            assert {mask_vertices(b) for b in got} == connected_subsets_brute(g, start, size, allowed)

    def test_respects_allowed_mask(self):
        nbr = _neighbour_masks(path_graph(5))
        assert list(_connected_blocks(nbr, 0, 2, mask({0, 1, 2}))) == [mask({0, 1})]
        assert list(_connected_blocks(nbr, 0, 2, mask({0, 2, 3}))) == []


class TestHasConnectedPartition:
    def test_path_all_types(self):
        g = path_graph(6)
        for lam in partitions_of(6):
            w = has_connected_partition(g, lam)
            assert isinstance(w, ConnectedPartitionWitness)
            assert Partition(len(b) for b in w.blocks) == lam

    def test_witness_blocks_partition_the_graph(self):
        g = sun_graph(3, (2, 2, 2))
        w = has_connected_partition(g, Partition([4, 3, 2]))
        assert w is not None
        flat = sorted(v for block in w.blocks for v in block)
        assert flat == list(range(g.n))
        for block in w.blocks:
            assert _is_connected_on(g, block)

    def test_absent_type(self):
        g = sun_graph(3, (1, 1, 1))
        assert has_connected_partition(g, Partition([3, 3])) is None

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            has_connected_partition(path_graph(4), Partition([3, 2]))

    def test_edge_cases(self):
        assert has_connected_partition(Graph(0, []), Partition([])) == ConnectedPartitionWitness(())
        w = has_connected_partition(Graph(3, []), Partition([1, 1, 1]))
        assert w.blocks == ((0,), (1,), (2,))
        w = has_connected_partition(Graph(4, [(1, 2)]), Partition([2, 1, 1]))
        assert w.blocks == ((0,), (1, 2), (3,))

    def test_long_inputs_are_refused_not_recursed(self):
        with pytest.raises(ValueError, match="guarded at 40 vertices, graph has 3000$"):
            has_connected_partition(path_graph(3000), [1] * 3000)
        assert has_connected_partition(path_graph(40), [1] * 40).blocks == tuple((v,) for v in range(40))

    def test_complete_sun_gcd_example(self):
        g = sun_graph(4, (5, 3, 3, 1), body="complete")
        assert has_connected_partition(g, Partition([9, 7])) is None


class TestMissingPartitionScan:
    def test_net(self):
        got = missing_partition_scan(sun_graph(3, (1, 1, 1)))
        assert got == [Partition([3, 3])]

    def test_path_has_none(self):
        assert missing_partition_scan(path_graph(6)) == []

    def test_guard(self):
        g = path_graph(DEFAULT_SCAN_VERTEX_CAP + 1)
        with pytest.raises(ValueError):
            missing_partition_scan(g)

    @pytest.mark.parametrize("text", ["sun(3;1,1,1)", "spider(1,1,1,1)", "csun(4;2,1,1,1)", "path(6)", "edges[4:(1,2)]"])
    def test_a_spec_string_a_spec_and_the_graph_agree(self, text):
        spec = parse_graph_spec(text)
        assert missing_partition_scan(text) == missing_partition_scan(spec) == missing_partition_scan(spec.build())

    def test_edge_cases(self):
        assert missing_partition_scan(Graph(0, [])) == []
        assert missing_partition_scan(Graph(3, [])) == [Partition([3]), Partition([2, 1])]
        # vertices 0 and 3 isolated: only singletons and the block {1, 2} are connected
        assert missing_partition_scan(Graph(4, [(1, 2)])) == [Partition([4]), Partition([3, 1]), Partition([2, 2])]

    def test_search_work_gate(self, monkeypatch):
        # one record of failed subproblems serves every type, merged witnesses
        # mark types with no search, and the search starts from the vertices of
        # least degree: 10,479 calls here, against 57,146 in the given
        # numbering, 65,001 searching every type and 104,576 with a fresh
        # record per type
        g = parse_graph_spec("csun(7;1,1,1,1,1,1,1)").build()
        expected = ref_missing_partition_scan(g)
        calls = count_search_calls(monkeypatch)
        assert missing_partition_scan(g) == expected
        assert len(expected) == 25
        assert calls[0] <= 12_000

    def test_merged_witnesses_spare_searches(self, monkeypatch):
        # 52 calls here, against 401 in the given numbering and 1,583 searching every type
        calls = count_search_calls(monkeypatch)
        missing = missing_partition_scan(parse_graph_spec("sun(3;4,4,3)").build())
        assert missing == [Partition(lam) for lam in ([8, 6], [7, 7], [7, 6, 1], [6, 6, 2], [6, 6, 1, 1])]
        assert calls[0] <= 70

    def test_star_search_work_gate(self, monkeypatch):
        # a star's connected partitions are one block holding the centre and
        # singletons; the search fails on every other type, in 111,891 calls
        # with the leaves first, against 197,016 from the centre
        calls = count_search_calls(monkeypatch)
        missing = missing_partition_scan(spider_graph((1,) * 13))
        assert missing == [lam for lam in partitions_of(14) if sum(part > 1 for part in lam) > 1]
        assert calls[0] <= 125_000

    def test_spanning_path_spares_every_search(self, monkeypatch):
        calls = count_search_calls(monkeypatch)
        for spec in ("cdumbbell(5,2,7)", "dumbbell(4,-1,7)"):
            assert missing_partition_scan(parse_graph_spec(spec).build()) == []
        assert calls[0] == 0

    def test_scan_is_sorted_and_unique(self):
        # the 4-leg star misses exactly the types (3,2) and (2,2,1)
        got = missing_partition_scan(spider_graph((1, 1, 1, 1)))
        assert got == [Partition([3, 2]), Partition([2, 2, 1])]
        assert got == sorted(got, reverse=True)

    def test_nonpositive_graph_may_have_no_missing_type(self):
        # a negative coefficient does not force a missing partition type
        g = sun_graph(3, (2, 1, 1))
        assert not e_positivity(g).positive
        assert missing_partition_scan(g) == []


def _small_sun_specs():
    """Every sun and complete sun with 3-6 body vertices on at most 12 vertices,
    one per isomorphism class: rotating or reflecting a sun's rays, or permuting
    a complete sun's, gives an isomorphic graph."""
    specs = set()
    for n in range(3, 7):
        for rays in itertools.product(range(1, 13 - 2 * n + 1), repeat=n):
            if n + sum(rays) <= 12:
                turns = [r[i:] + r[:i] for r in (rays, rays[::-1]) for i in range(n)]
                specs.add(f"sun({n};{','.join(map(str, min(turns)))})")
                specs.add(f"csun({n};{','.join(map(str, sorted(rays)))})")
    return sorted(specs)


def _traceable_family_specs():
    """Every tadpole and lollipop, and every dumbbell of each kind with its
    bodies in either order (l = -1 included), on at most 14 vertices."""
    specs = [f"{family}({m},{l})" for family in ("tadpole", "lollipop") for m in range(3, 15) for l in range(15 - m)]
    specs += [
        f"{family}({m},{l},{n})"
        for family in ("dumbbell", "cdumbbell", "sdumbbell")
        for m in range(3, 13)
        for n in range(3, 16 - m)
        for l in range(-1, 15 - m - n)
    ]
    return specs


def by_degree(g):
    """The copy of g that the scan walks: vertices renumbered by a stable sort on ascending degree."""
    adj = g.adjacency()
    rank = [0] * g.n
    for i, v in enumerate(sorted(range(g.n), key=lambda v: len(adj[v]))):
        rank[v] = i
    return permuted(g, rank)


def assert_spanning_path(g, order):
    nbr = _neighbour_masks(g)
    assert order is not None and len(order) == g.n and sorted(order) == list(range(g.n))
    assert all(nbr[u] >> v & 1 for u, v in zip(order, order[1:]))


#: the complete bipartite graph K_{2,5}: no vertex of degree below 2, and no spanning path
K_2_5 = "edges[7:" + ",".join(f"({u},{v})" for u in (0, 1) for v in range(2, 7)) + "]"


class TestSpanningPath:
    def test_every_small_tadpole_lollipop_and_dumbbell(self):
        specs = _traceable_family_specs()
        assert len(specs) == 816
        for spec in specs:
            g = parse_graph_spec(spec).build()
            assert g.n <= 14, spec
            for h in (g, by_degree(g)):
                assert_spanning_path(h, _spanning_path(_neighbour_masks(h)))

    def test_paths_cycles_and_complete_graphs(self):
        graphs = [build(n) for build in (path_graph, complete_graph) for n in range(1, 15)]
        graphs += [cycle_graph(n) for n in range(3, 15)]
        for g in graphs:
            for h in (g, by_degree(g)):
                assert_spanning_path(h, _spanning_path(_neighbour_masks(h)))

    def test_three_leaves_give_none(self):
        specs = _small_sun_specs() + ["spider(1,1,1)", "spider(4,3,2)", "spider(5,4,4)", "spider(3,3,3,2)"]
        for spec in specs:
            assert _spanning_path(_neighbour_masks(parse_graph_spec(spec).build())) is None, spec

    def test_edge_cases(self):
        assert _spanning_path(_neighbour_masks(Graph(1, []))) == [0]
        assert _spanning_path(_neighbour_masks(Graph(2, [(0, 1)]))) == [0, 1]
        assert _spanning_path(_neighbour_masks(Graph(2, []))) is None
        assert _spanning_path(_neighbour_masks(Graph(3, []))) is None


@st.composite
def traceable_graphs(draw):
    """A random path through all of at most 11 vertices, taken in a random
    order, plus each other pair as an edge with probability p."""
    n = draw(st.integers(1, 11))
    p = draw(st.sampled_from((0.0, 0.1, 0.25, 0.5)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    order = rng.sample(range(n), n)
    edges = list(zip(order, order[1:]))
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


class TestScanMatchesReference:
    """The reference searches every type; the scan answers from a spanning
    path when its walk finds one, and searches otherwise."""

    def test_small_suns(self):
        specs = _small_sun_specs()
        assert len(specs) == 86
        for spec in specs:
            g = parse_graph_spec(spec).build()
            assert missing_partition_scan(g) == ref_missing_partition_scan(g), spec

    def test_graphs_above_the_edge_cap(self):
        specs = [f"lollipop({m},{14 - m})" for m in range(3, 15)]
        specs += [f"cdumbbell({m},{l},{n})" for m, l, n in _canonical_dumbbell_triples(14) if m + l + n == 14]
        graphs = [g for g in (parse_graph_spec(spec).build() for spec in specs) if len(g.edges) > CSF_EDGE_CAP]
        assert len(graphs) == 30  # 8 lollipops and 22 complete dumbbells
        for g in graphs:
            assert missing_partition_scan(g) == ref_missing_partition_scan(g)

    def test_edge_cases(self):
        for g in (
            Graph(0, []), Graph(1, []), Graph(3, []), Graph(14, []),
            parse_graph_spec("union(cycle(5),spider(3,2,1))").build(),
        ):
            assert missing_partition_scan(g) == ref_missing_partition_scan(g)

    @settings(deadline=None, max_examples=60)
    @given(traceable_graphs())
    def test_traceable_graphs(self, g):
        assert missing_partition_scan(g) == ref_missing_partition_scan(g) == []
        order = _spanning_path(_neighbour_masks(g))
        if order is not None:
            assert_spanning_path(g, order)

    def test_leafless_graph_with_no_spanning_path(self):
        g = parse_graph_spec(K_2_5).build()
        assert sorted(map(len, g.adjacency())) == [2] * 5 + [5] * 2
        assert _spanning_path(_neighbour_masks(g)) is None
        assert _spanning_path(_neighbour_masks(by_degree(g))) is None
        expected = ref_missing_partition_scan(g)
        assert expected
        assert missing_partition_scan(K_2_5) == expected

    @settings(deadline=None, max_examples=50)
    @given(st.one_of(random_graphs(), glued_graphs()))
    def test_random_graphs(self, g):
        assert missing_partition_scan(g) == ref_missing_partition_scan(g)


def permuted(g, perm):
    """The copy of g with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def connected_graphs(draw):
    """Random connected G(n, p) on at most 11 vertices: a random tree plus each
    other pair as an edge with probability p."""
    n = draw(st.integers(1, 11))
    p = draw(st.sampled_from((0.1, 0.25, 0.5)))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


class TestScanIgnoresNumbering:
    """The scan renumbers the vertices by degree; its output is that of the
    reference in the given numbering, and of any renumbered copy."""

    SPECS = (
        "sun(3;2,3,4)", "sun(4;1,2,1,3)", "sun(5;1,1,2,1,2)", "sun(3;4,4,3)",
        "csun(4;2,2,3,1)", "csun(3;3,3,4)", "csun(6;1,1,1,1,1,2)",
        "spider(4,3,2)", "spider(3,3,3,2)", "spider(5,4,4)",
        "dumbbell(4,2,5)", "dumbbell(4,-1,7)", "cdumbbell(5,1,6)", "sdumbbell(3,4,5)",
    )

    def check(self, g, rng, copies=2):
        expected = ref_missing_partition_scan(g)
        assert missing_partition_scan(g) == expected
        for _ in range(copies):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert missing_partition_scan(permuted(g, perm)) == expected

    def test_family_specs(self):
        rng = random.Random(31)
        for spec in self.SPECS:
            g = parse_graph_spec(spec).build()
            assert 10 <= g.n <= 14, spec
            self.check(g, rng)

    def test_isolated_vertices(self):
        rng = random.Random(32)
        sun = sun_graph(3, (1, 1, 1))
        path_and_cycle = [(0, 1), (1, 2), (2, 3), (6, 7), (7, 8), (8, 9), (9, 10), (6, 10)]
        for g in (Graph(5, []), Graph(6, [(1, 2), (2, 3)]), Graph(sun.n + 3, sun.edges), Graph(12, path_and_cycle)):
            self.check(g, rng, copies=3)

    @settings(deadline=None, max_examples=40)
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_random_connected_graphs(self, g, rng):
        assert g.is_connected()
        self.check(g, rng)


class TestPositivityReports:
    def test_net_not_e_positive(self):
        rep = e_positivity("sun(3;1,1,1)")
        assert isinstance(rep, PositivityReport)
        assert not rep.positive
        assert rep.basis == "e"
        lam, coeff = rep.witness
        assert (lam, coeff) == (Partition([3, 3]), Fraction(-6))

    def test_witness_is_lex_smallest_negative(self):
        rep = e_positivity("sun(3;5,1,1)")
        assert not rep.positive
        lam, coeff = rep.witness
        assert lam == Partition([4, 3, 3])
        assert coeff == Fraction(-22)

    def test_positive_graph(self):
        rep = e_positivity("path(6)")
        assert rep.positive and rep.witness is None

    def test_net_is_s_positive(self):
        rep = s_positivity("sun(3;1,1,1)")
        assert rep.positive
        assert rep.basis == "s"

    def test_json_schema(self):
        obj = e_positivity("sun(3;1,1,1)").to_json_obj()
        assert set(obj) == {"positive", "basis", "witness", "engine"}
        assert obj["positive"] is False
        assert obj["witness"] == {"partition": [3, 3], "num": "-6", "den": "1"}
        obj = e_positivity("path(4)").to_json_obj()
        assert obj["witness"] is None

    def test_accepts_graph_objects(self):
        rep = e_positivity(cycle_graph(4))
        assert rep.positive


class TestMissingTypeFormulas:
    @pytest.mark.parametrize(
        "n,k,expect",
        [
            (4, 1, (5, 3)),
            (3, 1, (3, 3)),
            (6, 1, (7, 5)),
            (3, 2, (5, 4)),
            (4, 2, (7, 5)),
            (3, 3, (7, 5)),
            (5, 2, (8, 7)),
        ],
    )
    def test_uniform_type(self, n, k, expect):
        assert uniform_sun_missing_type(n, k) == Partition(expect)

    @pytest.mark.parametrize(
        "n,k,expect",
        [(4, 1, -24), (3, 1, -6), (6, 1, -60), (3, 2, -18), (4, 2, -36), (5, 3, -80)],
    )
    def test_uniform_coefficient(self, n, k, expect):
        assert uniform_sun_coefficient(n, k) == expect

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform_sun_missing_type(2, 1)
        with pytest.raises(ValueError):
            uniform_sun_coefficient(3, 0)

    def test_gcd_type(self):
        assert gcd_missing_type((5, 3, 3, 1)) == Partition([9, 7])
        assert gcd_missing_type((3, 3, 3)) == Partition([7, 5])

    def test_gcd_type_none_cases(self):
        # shifted lengths share no common factor
        assert gcd_missing_type((2, 1, 1)) is None
        # largest ray too long for the split
        assert gcd_missing_type((9, 1, 1)) is None

    def test_gcd_validation(self):
        with pytest.raises(ValueError):
            gcd_missing_type((3, 3))
        with pytest.raises(ValueError):
            gcd_missing_type((3, 0, 3))

    @pytest.mark.parametrize(
        "function,args",
        [
            (gcd_missing_type, ([2.9, 2, 2],)),
            (gcd_missing_type, ((3, "3", 3),)),
            (spider_nonpositivity_criterion, ((3.5, 2, 2, 2), 2)),
            (spider_nonpositivity_criterion, ((3, 2, 2, 2), 2.5)),
            (uniform_sun_missing_type, (4, 1.5)),
            (uniform_sun_missing_type, (3.0, 2)),
            (uniform_sun_coefficient, (3, 1.5)),
        ],
    )
    def test_non_integer_arguments_are_refused(self, function, args):
        with pytest.raises(ValueError, match="must be integers"):
            function(*args)

    def test_triangle_type(self):
        assert triangle_sun_missing_type(2, 1, 2) == Partition([4, 4])
        assert triangle_sun_missing_type(5, 3, 3) == Partition([7, 7])
        assert triangle_sun_missing_type(3, 2, 2) == Partition([5, 5])

    def test_triangle_sorts_arguments(self):
        assert triangle_sun_missing_type(1, 2, 2) == triangle_sun_missing_type(2, 2, 1)

    def test_triangle_none_when_largest_dominates(self):
        assert triangle_sun_missing_type(2, 1, 1) is None
        assert triangle_sun_missing_type(4, 2, 2) is None

    def test_triangle_validation(self):
        with pytest.raises(ValueError):
            triangle_sun_missing_type(0, 1, 1)


class TestPredictedTypesAreMissing:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (3, 3)])
    @pytest.mark.parametrize("body", ["cycle", "complete"])
    def test_uniform(self, n, k, body):
        g = sun_graph(n, (k,) * n, body=body)
        assert has_connected_partition(g, uniform_sun_missing_type(n, k)) is None

    @pytest.mark.parametrize("rays", [(3, 3, 3), (5, 3, 3, 1), (3, 1, 1, 1)])
    def test_gcd(self, rays):
        lam = gcd_missing_type(rays)
        assert lam is not None
        for body in ("cycle", "complete"):
            g = sun_graph(len(rays), rays, body=body)
            assert has_connected_partition(g, lam) is None

    @pytest.mark.parametrize("abc", [(2, 1, 2), (3, 2, 2), (2, 2, 2), (4, 3, 2)])
    def test_triangle(self, abc):
        lam = triangle_sun_missing_type(*abc)
        assert lam is not None
        g = sun_graph(3, abc)
        assert has_connected_partition(g, lam) is None


class TestSunMatching:
    def test_spec_examples(self):
        assert not sun_matching_criterion("sun(5;3,1,2,1,2)")
        assert sun_matching_criterion("sun(5;3,2,2,1,1)")

    def test_direct_search_agrees_on_random_suns(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(3, 5)
            rays = tuple(rng.randint(1, 3) for _ in range(n))
            body = rng.choice(["cycle", "complete"])
            kind = "sun" if body == "cycle" else "csun"
            spec = f"{kind}({n};{','.join(map(str, rays))})"
            g = parse_graph_spec(spec).build()
            matched = has_connected_partition(g, (2,) * (g.n // 2) + (1,) * (g.n % 2)) is not None
            assert sun_matching_criterion(spec) == matched, spec

    def test_direct_search_agrees_on_every_small_sun(self):
        for kind in ("sun", "csun"):
            for n in range(3, 7):
                for rays in itertools.product((1, 2, 3), repeat=n):
                    spec = f"{kind}({n};{','.join(map(str, rays))})"
                    g = parse_graph_spec(spec).build()
                    matched = has_connected_partition(g, (2,) * (g.n // 2) + (1,) * (g.n % 2)) is not None
                    assert sun_matching_criterion(spec) == matched, spec

    def test_even_runs_are_read_cyclically(self):
        # the even rays at positions 0 and 4 are neighbours on the body cycle
        assert sun_matching_criterion("sun(5;2,1,1,1,2)")
        assert not sun_matching_criterion("sun(5;2,1,2,1,1)")

    @pytest.mark.parametrize("kind", ["sun", "csun"])
    def test_three_thousand_even_rays_in_under_a_second(self, kind):
        spec = f"{kind}(3000;{','.join(['2'] * 3000)})"
        t0 = time.perf_counter()
        assert sun_matching_criterion(spec)
        assert time.perf_counter() - t0 < 1.0

    def test_even_order_means_perfect_matching(self):
        # matched sun of even order: pair off every vertex into connected 2-blocks
        spec = "sun(5;3,2,2,1,1)"
        g = parse_graph_spec(spec).build()
        assert g.n % 2 == 0
        w = has_connected_partition(g, Partition([2] * (g.n // 2)))
        assert w is not None

    def test_odd_order_uses_one_singleton(self):
        spec = "sun(3;1,1,2)"
        g = parse_graph_spec(spec).build()
        assert g.n % 2 == 1
        assert sun_matching_criterion(spec) == (has_connected_partition(g, (2,) * (g.n // 2) + (1,)) is not None)

    def test_rejects_non_sun(self):
        with pytest.raises(ValueError):
            sun_matching_criterion("path(4)")

    @pytest.mark.parametrize("helper", [sun_matching_criterion])
    def test_a_built_graph_is_refused_by_name(self, helper):
        with pytest.raises(ValueError, match=r"\(a GraphSpec or spec string\)$"):
            helper(sun_graph(3, (1, 1, 1)))


class TestSpiderCriterion:
    def test_reduction_family_fires(self):
        # legs (a+1, b+1, b) with b large relative to a
        a, b = 1, 4
        assert spider_nonpositivity_criterion((a + 1, b + 1, b), 2)

    def test_small_case_does_not_fire(self):
        assert not spider_nonpositivity_criterion((2, 2, 2), 2)

    def test_leg_order_matters(self):
        legs_sorted = (5, 4, 2)
        legs_given = (2, 5, 4)
        results = {
            order: [spider_nonpositivity_criterion(order, i) for i in (2,)]
            for order in (legs_sorted, legs_given)
        }
        assert results[legs_sorted] != results[legs_given]

    def test_index_validation(self):
        with pytest.raises(ValueError):
            spider_nonpositivity_criterion((3, 2, 2), 1)
        with pytest.raises(ValueError):
            spider_nonpositivity_criterion((3, 2, 2), 3)
        with pytest.raises(ValueError):
            spider_nonpositivity_criterion((3,), 2)
        with pytest.raises(ValueError):
            spider_nonpositivity_criterion((3, 0, 2), 2)

    def test_fired_criterion_matches_actual_negativity(self):
        # small spiders where the criterion fires must really fail e-positivity
        for legs, i in [((2, 5, 4), 2), ((2, 4, 4), 2)]:
            if spider_nonpositivity_criterion(legs, i):
                rep = e_positivity(spider_graph(legs))
                assert not rep.positive


class TestCoefficientsMatchComputedExpansions:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (3, 2)])
    def test_uniform_suns(self, n, k):
        rep_type = uniform_sun_missing_type(n, k)
        from chromsym.csf import compute_csf

        f, _ = compute_csf(sun_graph(n, (k,) * n))
        assert f.terms.get(rep_type, 0) == uniform_sun_coefficient(n, k)
