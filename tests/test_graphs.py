import pytest

from chromsym.graphs import (
    Graph,
    GraphSpec,
    MAX_SPEC_DEPTH,
    SpecParseError,
    add_complete,
    attach,
    build_spec,
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


class TestEdgeSubsetType:
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

    def test_build_spec_cached(self):
        assert build_spec("path(4)") is build_spec("path(4)")
        assert build_spec("path(4)") == path_graph(4)

    def test_spec_objects_hashable(self):
        a = parse_graph_spec("sun(3;1,1,1)")
        b = parse_graph_spec("sun(3;1,1,1)")
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
