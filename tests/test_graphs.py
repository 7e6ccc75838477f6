import random
from itertools import product

import pytest

from chromsym.csf import compute_csf
from chromsym.graphs import (
    _FAMILY_TABLE,
    Graph,
    GraphSpec,
    MAX_SPEC_DEPTH,
    SpecParseError,
    add_complete,
    attach,
    complete_graph,
    cycle_graph,
    disjoint_union,
    dumbbell_graph,
    edge_subset_type,
    line_graph,
    lollipop_graph,
    parse_graph_spec,
    path_graph,
    spider_graph,
    sun_graph,
    tadpole_graph,
)
from chromsym.partitions import Partition


def degrees(g):
    return sorted(g.degree(v) for v in range(g.n))


class TestGraphType:
    def test_canonical_edges(self):
        g = Graph(3, [(2, 1), (0, 1)])
        assert g.edge_list == [(0, 1), (1, 2)]

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_equality_and_hash(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(0, 1)]))
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])

    def test_components_and_connectivity(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert [sorted(c) for c in g.components()] == [[0, 1], [2, 3], [4]]
        assert not g.is_connected()
        assert path_graph(4).is_connected()


class TestBuilders:
    def test_path(self):
        g = path_graph(4)
        assert (g.n, len(g.edges)) == (4, 3)
        assert degrees(g) == [1, 1, 2, 2]
        assert path_graph(1).n == 1
        with pytest.raises(ValueError):
            path_graph(0)

    def test_cycle(self):
        g = cycle_graph(5)
        assert (g.n, len(g.edges)) == (5, 5)
        assert degrees(g) == [2] * 5
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(5)
        assert len(g.edges) == 10
        assert degrees(g) == [4] * 5

    def test_spider(self):
        g = spider_graph((3, 2, 2))
        assert (g.n, len(g.edges)) == (8, 7)
        assert g.degree(0) == 3
        assert degrees(g).count(1) == 3

    def test_sun_shapes(self):
        g = sun_graph(3, (1, 1, 1))
        assert (g.n, len(g.edges)) == (6, 6)
        assert degrees(g) == [1, 1, 1, 3, 3, 3]
        g = sun_graph(4, (2, 1, 1, 3), body="complete")
        assert (g.n, len(g.edges)) == (11, 6 + 4 + 3)

    def test_sun_requires_one_ray_per_body_vertex(self):
        with pytest.raises(ValueError):
            sun_graph(3, (1, 1))
        with pytest.raises(ValueError):
            sun_graph(3, (1, 1, 0))

    def test_sun_ray_order_changes_isomorphism_type(self):
        a = sun_graph(5, (3, 1, 2, 1, 2))
        b = sun_graph(5, (3, 2, 2, 1, 1))
        assert (a.n, len(a.edges)) == (b.n, len(b.edges))
        assert a != b

    def test_tadpole_and_lollipop(self):
        g = tadpole_graph(4, 3)
        assert (g.n, len(g.edges)) == (7, 7)
        assert tadpole_graph(4, 0) == cycle_graph(4)
        g = lollipop_graph(4, 2)
        assert (g.n, len(g.edges)) == (6, 8)
        assert lollipop_graph(3, 0) == complete_graph(3)

    def test_dumbbell_counts(self):
        for l, extra_v in [(2, 2), (1, 1), (0, 0)]:
            g = dumbbell_graph(3, l, 4)
            assert (g.n, len(g.edges)) == (7 + extra_v, 7 + l + (1 if l >= 0 else 0))
        g = dumbbell_graph(3, -1, 4)
        assert (g.n, len(g.edges)) == (6, 7)
        assert degrees(g) == [2, 2, 2, 2, 2, 4]

    def test_dumbbell_kinds(self):
        g = dumbbell_graph(4, 2, 3, kind="complete")
        assert len(g.edges) == 6 + 3 + 3
        assert max(g.degree(v) for v in range(g.n)) == 4
        # semicomplete = cycle on the first block, clique on the second
        g = dumbbell_graph(4, 2, 3, kind="semicomplete")
        assert len(g.edges) == 4 + 3 + 3
        assert degrees(g) == [2] * 7 + [3, 3]
        g = dumbbell_graph(4, 0, 3, kind="semicomplete")
        assert len(g.edges) == 4 + 1 + 3
        with pytest.raises(ValueError):
            dumbbell_graph(2, 0, 3)
        with pytest.raises(ValueError):
            dumbbell_graph(3, -2, 3)

    def test_line_graph_of_triangle(self):
        assert line_graph(cycle_graph(3)) == cycle_graph(3)

    def test_line_graph_of_path(self):
        assert line_graph(path_graph(5)) == path_graph(4)

    def test_line_graph_of_spider_is_complete_sun(self):
        # legs >= 2 turn the line graph into a complete-bodied sun on legs-1
        spider = spider_graph((3, 3, 2))
        lg = line_graph(spider)
        target = sun_graph(3, (2, 2, 1), body="complete")
        assert (lg.n, len(lg.edges)) == (target.n, len(target.edges))
        assert degrees(lg) == degrees(target)

    def test_attach_reproduces_sun(self):
        net = attach(cycle_graph(3), [(i, path_graph(1), 0) for i in range(3)])
        assert net == sun_graph(3, (1, 1, 1))

    def test_attach_shapes(self):
        g = attach(cycle_graph(3), [(0, path_graph(3), 0), (2, cycle_graph(3), 1)])
        assert (g.n, len(g.edges)) == (9, 3 + 1 + 2 + 1 + 3)
        with pytest.raises(ValueError):
            attach(cycle_graph(3), [(0, path_graph(1), 0), (0, path_graph(1), 0)])

    def test_add_complete(self):
        g = add_complete(path_graph(2), 1, 3)
        assert (g.n, len(g.edges)) == (4, 1 + 3)
        with pytest.raises(ValueError):
            add_complete(path_graph(2), 1, 1)

    def test_disjoint_union(self):
        g = disjoint_union(path_graph(2), cycle_graph(3))
        assert (g.n, len(g.edges)) == (5, 4)
        assert [sorted(c) for c in g.components()] == [[0, 1], [2, 3, 4]]


class TestBuilderLayout:
    """Exact vertex numbering of every builder, against independent constructions."""

    BODIES = {"ordinary": (cycle_graph, cycle_graph), "complete": (complete_graph, complete_graph),
              "semicomplete": (cycle_graph, complete_graph)}

    def test_cycle_and_complete_edge_lists(self):
        assert cycle_graph(3).edge_list == [(0, 1), (0, 2), (1, 2)]
        assert cycle_graph(5).edge_list == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert complete_graph(1).edge_list == []
        assert complete_graph(4).edge_list == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for n in range(3, 9):
            assert cycle_graph(n) == Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
            assert complete_graph(n) == Graph(n, [(i, j) for j in range(n) for i in range(j)])

    def test_spider_edge_list(self):
        assert spider_graph((2, 1, 3)).edge_list == [(0, 1), (0, 3), (0, 4), (1, 2), (4, 5), (5, 6)]

    @pytest.mark.parametrize("body", ["cycle", "complete"])
    def test_sun_is_body_with_attached_rays(self, body):
        make = cycle_graph if body == "cycle" else complete_graph
        for n, rays in [(3, (1, 1, 1)), (3, (2, 1, 3)), (4, (1, 3, 2, 1)), (5, (2, 2, 1, 1, 3))]:
            expected = attach(make(n), [(i, path_graph(r), 0) for i, r in enumerate(rays)])
            assert sun_graph(n, rays, body) == expected

    def test_tadpole_and_lollipop_are_body_with_attached_tail(self):
        for m, l in product(range(3, 6), range(1, 5)):
            assert tadpole_graph(m, l) == attach(cycle_graph(m), [(0, path_graph(l), 0)])
            assert lollipop_graph(m, l) == attach(complete_graph(m), [(0, path_graph(l), 0)])

    @pytest.mark.parametrize("kind", ["ordinary", "complete", "semicomplete"])
    def test_dumbbell_is_nested_attach(self, kind):
        first, second = self.BODIES[kind]
        for m, l, n in product(range(3, 6), range(0, 4), range(3, 6)):
            tail = second(n) if l == 0 else attach(path_graph(l), [(l - 1, second(n), 0)])
            assert dumbbell_graph(m, l, n, kind) == attach(first(m), [(0, tail, 0)])

    @pytest.mark.parametrize("kind", ["complete", "semicomplete"])
    def test_shared_vertex_dumbbell_glues_clique(self, kind):
        first, _ = self.BODIES[kind]
        for m, n in product(range(3, 6), range(3, 6)):
            assert dumbbell_graph(m, -1, n, kind) == add_complete(first(m), 0, n)


def reference_subset_type(g, subset):
    """Component sizes of (V, subset) by union-find, the helper's former body."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in subset:
        parent[find(u)] = find(v)
    sizes = {}
    for x in range(g.n):
        sizes[find(x)] = sizes.get(find(x), 0) + 1
    return Partition(sizes.values())


def reference_line_graph(g):
    """Line graph by testing every pair of edges, the helper's former body."""
    es = g.edge_list
    pairs = [(i, j) for i, j in product(range(len(es)), repeat=2) if i < j and set(es[i]) & set(es[j])]
    return Graph(len(es), pairs)


def random_small_graphs(count, seed):
    """``Graph(0, [])`` and then random graphs on up to 12 vertices, often with isolated vertices."""
    rng = random.Random(seed)
    yield Graph(0, [])
    for _ in range(count):
        n = rng.randint(0, 12)
        density = rng.random()
        yield Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


class TestAgainstReferences:
    def test_line_graph_matches_all_pairs(self):
        for g in random_small_graphs(500, seed=1):
            lg = line_graph(g)
            assert lg == reference_line_graph(g), g.edge_list
            assert lg.n == len(g.edges)

    def test_subset_type_matches_union_find(self):
        rng = random.Random(2)
        for g in random_small_graphs(500, seed=3):
            subset = [e for e in g.edge_list if rng.random() < 0.5]
            assert edge_subset_type(g, subset) == reference_subset_type(g, subset), (g.n, subset)

    def test_isolated_vertices_and_empty_graph(self):
        assert line_graph(Graph(0, [])) == Graph(0, [])
        assert line_graph(Graph(5, [(1, 3)])) == Graph(1, [])
        assert edge_subset_type(Graph(0, []), ()) == Partition()
        assert edge_subset_type(Graph(5, [(1, 3)]), [(3, 1)]) == Partition((2, 1, 1, 1))


class TestEdgeSubsetType:
    def test_not_an_edge(self):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) not in graph"):
            edge_subset_type(path_graph(4), [(0, 1), (2, 0)])

    def test_generator_subset(self):
        g = path_graph(4)
        assert edge_subset_type(g, (e for e in g.edge_list)) == Partition((4,))

    def test_empty_subset(self):
        g = path_graph(4)
        assert edge_subset_type(g, ()) == Partition([1, 1, 1, 1])

    def test_full_path(self):
        g = path_graph(4)
        assert edge_subset_type(g, g.edge_list) == Partition((4,))

    def test_mixed_subset(self):
        g = cycle_graph(5)
        sub = [(0, 1), (1, 2), (3, 4)]
        assert edge_subset_type(g, sub) == Partition((3, 2))


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "path(5)",
            "cycle(3)",
            "complete(6)",
            "spider(3,2,2)",
            "sun(3;1,1,1)",
            "csun(4;2,1,1,3)",
            "tadpole(4,2)",
            "lollipop(3,0)",
            "dumbbell(3,1,3)",
            "dumbbell(3,-1,4)",
            "cdumbbell(4,0,4)",
            "sdumbbell(4,2,3)",
            "line(spider(3,3,2))",
            "union(path(2),cycle(3))",
            "edges[4:(0,1),(1,2),(2,3)]",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_graph_spec(text)
        assert str(spec) == text
        assert spec.build().n >= 1
        again = parse_graph_spec(str(spec))
        assert again == spec
        assert again.build() == spec.build()

    def test_whitespace_tolerated(self):
        assert parse_graph_spec(" sun( 3 ; 1, 1 ,1 ) ") == parse_graph_spec("sun(3;1,1,1)")

    def test_build_matches_builders(self):
        assert parse_graph_spec("path(5)").build() == path_graph(5)
        assert parse_graph_spec("sun(3;2,1,1)").build() == sun_graph(3, (2, 1, 1))
        assert parse_graph_spec("csun(3;1,1,1)").build() == sun_graph(3, (1, 1, 1), body="complete")
        assert parse_graph_spec("dumbbell(3,0,3)").build() == dumbbell_graph(3, 0, 3)
        assert parse_graph_spec("union(path(2),path(1))").build() == disjoint_union(
            path_graph(2), path_graph(1)
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "path",
            "path(",
            "path()",
            "path(2) trailing",
            "unknown(3)",
            "sun(3:1,1,1)",
            "dumbbell(3,1)",
            "path(x)",
        ],
    )
    def test_rejects_malformed_syntax(self, text):
        with pytest.raises((SpecParseError, ValueError)):
            parse_graph_spec(text)

    @pytest.mark.parametrize(
        "text",
        [
            "sun(3;1,1)",
            "cycle(2)",
            "edges[2:(0,2)]",
            "path(0)",
        ],
    )
    def test_semantic_errors_surface_on_build(self, text):
        # syntax is fine, so parsing succeeds; building raises
        spec = parse_graph_spec(text)
        with pytest.raises(ValueError):
            spec.build()

    def test_parse_error_carries_position(self):
        with pytest.raises(SpecParseError) as err:
            parse_graph_spec("sun(3;1,1,?)")
        assert getattr(err.value, "pos", None) is not None

    def test_nesting_depth_bounded(self):
        spec = "line(" * 1200 + "path(3)" + ")" * 1200
        with pytest.raises(SpecParseError):
            parse_graph_spec(spec)
        shallow = "line(" * MAX_SPEC_DEPTH + "path(3)" + ")" * MAX_SPEC_DEPTH
        assert parse_graph_spec(shallow).family == "line"

    def test_spec_objects_hashable(self):
        a = parse_graph_spec("sun(3;1,1,1)")
        b = parse_graph_spec("sun(3;1,1,1)")
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


def _raises_value_error(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


_SMALL = (-1, 0, 1, 2, 3)
_INNER = ("path(0)", "path(2)", "cycle(2)", "cycle(3)", "sun(3;1,1)", "spider(1,2)")


def _small_specs(family):
    """Specs of ``family`` over small arguments, valid and invalid, including
    hand-made specs with one argument too many or too few."""
    if family in ("sun", "csun"):
        for n in (-1, 0, 1, 2, 3, 4):
            for k in {max(n - 1, 0), max(n, 0), n + 1}:
                for rays in product((-1, 0, 1, 2), repeat=k):
                    yield GraphSpec(family, (n, rays))
        yield GraphSpec(family, (3,))
        yield GraphSpec(family, (3, (1, 1, 1), 1))
    elif family == "spider":
        for k in range(4):
            for legs in product((-1, 0, 1, 2), repeat=k):
                yield GraphSpec(family, legs)
    elif family == "line":
        for inner in _INNER:
            yield GraphSpec(family, (parse_graph_spec(inner),))
        yield GraphSpec(family, ())
        yield GraphSpec(family, (parse_graph_spec("path(2)"),) * 2)
    elif family == "union":
        for a, b in product(_INNER, repeat=2):
            yield GraphSpec(family, (parse_graph_spec(a), parse_graph_spec(b)))
        yield GraphSpec(family, (parse_graph_spec("path(2)"),))
    elif family == "edges":
        for d in _SMALL:
            for pairs in ((), ((0, 1),), ((1, 1),), ((0, 2),), ((0, 1), (1, 2))):
                yield GraphSpec(family, (d, pairs))
        yield GraphSpec(family, (2,))
    else:
        arity = _FAMILY_TABLE[family][0]
        for args in product(_SMALL, repeat=arity):
            yield GraphSpec(family, args)
        yield GraphSpec(family, (3,) * (arity + 1))
        yield GraphSpec(family, (3,) * (arity - 1))


class TestArgumentRules:
    @pytest.mark.parametrize("family", sorted(_FAMILY_TABLE))
    def test_check_raises_exactly_when_build_does(self, family):
        outcomes = set()
        for spec in _small_specs(family):
            rejected = _raises_value_error(spec.check)
            assert _raises_value_error(spec.build) == rejected, spec
            assert _raises_value_error(lambda: compute_csf(spec)) == rejected, spec
            outcomes.add(rejected)
        assert outcomes == {True, False}

    def test_unknown_family_is_a_value_error(self):
        for call in (GraphSpec("wedge", (3,)).check, GraphSpec("wedge", (3,)).build):
            with pytest.raises(ValueError, match="unknown family"):
                call()
