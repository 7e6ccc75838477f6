import itertools
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from chromsym import graphs as graphs_module
from chromsym.csf import compute_csf
from chromsym.graphs import (
    _FAMILY_TABLE,
    Graph,
    GraphSpec,
    MAX_SPEC_DEPTH,
    SpecParseError,
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


def attach(body, attachments):
    """Each (body vertex, graph, graph vertex) joined by one edge, the graphs numbered after the body in order."""
    n, edges = body.n, body.edge_list
    for bv, g, gv in attachments:
        edges += [(a + n, b + n) for a, b in g.edge_list] + [(bv, gv + n)]
        n += g.n
    return Graph(n, edges)


def add_complete(g, anchor, m):
    """``g`` with a K_m glued on at ``anchor``, its m - 1 new vertices numbered after g's."""
    return Graph(g.n + m - 1, g.edge_list + list(itertools.combinations([anchor, *range(g.n, g.n + m - 1)], 2)))


def degrees(g):
    return sorted(map(len, g.adjacency()))


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
        assert len(g.adjacency()[0]) == 3
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

    @pytest.mark.parametrize(
        "family, builder, body", [("tadpole", tadpole_graph, "tadpole cycle"), ("lollipop", lollipop_graph, "lollipop clique")]
    )
    def test_tadpole_and_lollipop_messages(self, family, builder, body):
        for args, message in (((2, 1), f"{body} needs m >= 3"), ((3, -1), "tail length must be nonnegative")):
            for call in (GraphSpec(family, args).check, lambda: builder(*args)):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == message

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
        assert max(degrees(g)) == 4
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

    def test_isolated_vertices_and_empty_graph(self):
        assert line_graph(Graph(0, [])) == Graph(0, [])
        assert line_graph(Graph(5, [(1, 3)])) == Graph(1, [])


_ARG = st.integers(-3, 40)
#: every family but ``line`` and ``union``, over valid and invalid arguments, with an integer wherever the grammar needs one
_LEAF_SPECS = st.one_of(
    *(
        st.lists(_ARG, min_size=arity, max_size=arity).map(lambda args, f=family: GraphSpec(f, tuple(args)))
        for family, (arity, _, _) in _FAMILY_TABLE.items()
        if family not in ("spider", "sun", "csun", "line", "union", "edges")
    ),
    st.lists(_ARG, min_size=1, max_size=5).map(lambda legs: GraphSpec("spider", tuple(legs))),
    st.tuples(st.sampled_from(["sun", "csun"]), _ARG, st.lists(_ARG, min_size=1, max_size=5)).map(
        lambda t: GraphSpec(t[0], (t[1], tuple(t[2])))
    ),
    st.tuples(_ARG, st.lists(st.tuples(_ARG, _ARG), max_size=4)).map(lambda t: GraphSpec("edges", (t[0], tuple(t[1])))),
)


def _nested_specs(inner):
    """``inner``, or one more level of ``line`` or ``union`` around it."""
    return st.one_of(
        inner,
        inner.map(lambda s: GraphSpec("line", (s,))),
        st.tuples(inner, inner).map(lambda ab: GraphSpec("union", ab)),
    )


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
        "text, message, pos",
        [
            ("path(1,2)", "path takes 1 argument(s), got 2", 9),
            ("union(path(2))", "expected ','", 13),
            ("line(path(2),path(3))", "expected ')'", 12),
            ("sun(3,1,1,1)", "expected ';'", 5),
            ("foo(1)", "unknown family 'foo'", 3),
            ("path(3) x", "trailing input after spec", 8),
            ("path( - 3)", "expected an integer", 7),
            ("edges[3:(0,1)(1,2)]", "expected ']'", 13),
            ("line()", "expected a family name", 5),
            pytest.param("line(" * 101 + "path(3)" + ")" * 101, "spec nested deeper than 100 levels", 505, id="line^101"),
        ],
    )
    def test_error_text_and_position(self, text, message, pos):
        with pytest.raises(SpecParseError) as err:
            parse_graph_spec(text)
        assert str(err.value) == f"{message} (at position {pos})"
        assert err.value.pos == pos

    def test_edge_list_may_end_with_a_comma(self):
        assert parse_graph_spec("edges[3:(0,1),]") == parse_graph_spec("edges[3:(0,1)]")

    @settings(deadline=None, max_examples=300)
    @given(_nested_specs(_nested_specs(_nested_specs(_LEAF_SPECS))))
    def test_str_parses_back(self, spec):
        assert parse_graph_spec(str(spec)) == spec

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

    @pytest.mark.parametrize("text", ["path(\u0663)", "path(\u00b2)"])
    def test_integers_are_ascii_digits(self, text):
        with pytest.raises(SpecParseError, match=r"^expected an integer \(at position 5\)$") as err:
            parse_graph_spec(text)
        assert err.value.pos == 5

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


#: the families whose arguments are integers: all but ``line``, ``union`` and ``edges``
_INTEGER_FAMILIES = sorted(set(_FAMILY_TABLE) - {"line", "union", "edges"})
#: small, negative, float and string arguments; a bool counts as an int
_ARGUMENT = st.one_of(
    st.integers(-2, 6), st.booleans(), st.floats(-2, 6, allow_nan=False), st.sampled_from(["3", "x"])
)


@st.composite
def _integer_family_specs(draw):
    family = draw(st.sampled_from(_INTEGER_FAMILIES))
    if family in ("sun", "csun"):
        return GraphSpec(family, (draw(_ARGUMENT), tuple(draw(st.lists(_ARGUMENT, max_size=5)))))
    arity = _FAMILY_TABLE[family][0]
    count = draw(st.integers(0, 4)) if arity is None else arity
    return GraphSpec(family, tuple(draw(_ARGUMENT) for _ in range(count)))


class TestArgumentRules:
    @given(_integer_family_specs())
    @settings(max_examples=400, deadline=None)
    def test_non_integer_arguments_are_refused_by_check_and_build(self, spec):
        try:
            n = spec.check()
        except ValueError:
            with pytest.raises(ValueError):
                spec.build()
        else:
            assert n == spec.build().n

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


class TestLineOfALineGraph:
    """``line(line(H))`` reads |E(L(H))| off H's degrees: H is built, L(H) is
    not.  A longer chain stops building once a level's 2-core passes the cap."""

    @pytest.mark.parametrize("family", sorted(_FAMILY_TABLE))
    def test_count_matches_the_built_line_graph(self, family):
        for inner in _small_specs(family):
            spec = GraphSpec("line", (GraphSpec("line", (inner,)),))
            rejected = _raises_value_error(spec.check)
            assert _raises_value_error(spec.build) == rejected, inner
            if not rejected:
                assert spec.check() == len(GraphSpec("line", (inner,)).build().edges), inner

    def test_check_builds_two_fewer_line_graphs(self, monkeypatch):
        """Two fewer than ``build``, and none past line^2(K_5): the 2-core of
        that level has 150 edges, over the cap, so the count is carried up."""
        built = []
        monkeypatch.setattr(graphs_module, "line_graph", lambda g: built.append(g) or line_graph(g))
        for k in range(1, 7):
            built.clear()
            n = parse_graph_spec("line(" * k + "complete(5)" + ")" * k).check()
            assert len(built) == min(max(k - 2, 0), 2), k
        assert n == 757350

    @pytest.mark.parametrize("family", sorted(_FAMILY_TABLE))
    def test_count_is_exact_or_a_bound_over_the_cap(self, family):
        """Under up to four ``line``s, ``check`` raises as ``build`` does, and
        returns |V|, or a bound over the 40-vertex cap and at most |V|."""
        for inner in _small_specs(family):
            for depth in (1, 2, 3, 4):
                spec = inner
                for _ in range(depth):
                    spec = GraphSpec("line", (spec,))
                if _raises_value_error(spec.check):
                    assert _raises_value_error(spec.build), spec
                    continue
                n, exact = spec.check(), spec.build().n
                assert n == exact or 40 < n < exact, (spec, exact, n)

    @pytest.mark.parametrize(
        "base, depth, bound",
        [("lollipop(5,8)", 5, 12144), ("sun(3;10,1,1)", 6, 1380), ("sun(4;2,1,1,1)", 6, 3276), ("tadpole(3,10)", 6, 857)],
    )
    def test_pendant_path_chain_is_a_bound_over_the_cap(self, base, depth, bound):
        """A pendant path keeps every level's least degree at 1, but is no
        part of its 2-core, so the walk still stops, with a bound at most |V|:
        |V(L^depth)| = |E(L^(depth - 1))|, built here in full."""
        below = "line(" * (depth - 1) + base + ")" * (depth - 1)
        exact = len(parse_graph_spec(below).build().edges)
        assert parse_graph_spec(f"line({below})").check() == bound
        assert bound == exact or 40 < bound < exact, exact

    def test_count_builds_no_level_over_the_cap(self, monkeypatch):
        built = []
        monkeypatch.setattr(graphs_module, "line_graph", lambda g: built.append(line_graph(g)) or built[-1])
        exact = [10, 30, 150, 1350, 22950, 757350, 49227750]
        for k in range(1, 100):
            n = parse_graph_spec("line(" * k + "complete(5)" + ")" * k).check()
            assert n == exact[k - 1] if k <= 7 else n > exact[-1]  # K5 and its line graphs are regular
        assert max(g.n for g in built) == 30
        union = parse_graph_spec("line(line(union(" + "line(" * 7 + "complete(5)" + ")" * 7 + ",path(3))))")
        assert union.check() > 40 and max(g.n for g in built) == 30
        for base in ("lollipop(5,8)", "tadpole(3,10)", "sun(3;10,1,1)", "spider(10,10,10)"):
            built.clear()
            for k in range(8, 100):
                assert parse_graph_spec("line(" * k + base + ")" * k).check() > 40, (base, k)
            edges = len(parse_graph_spec(base).build().edges)
            assert max(g.n for g in built) <= 40 + edges, base  # 40 in a 2-core, the rest pendant

    @pytest.mark.parametrize(
        "spec, bound",
        [
            ("line(sun(3;1000000,1,1))", 1000004),
            ("line(complete(2000))", 1999),
            ("line(cycle(42))", 41),
            ("line(line(path(100000000)))", 99999998),
        ],
    )
    def test_large_connected_base_is_refused_unbuilt(self, monkeypatch, spec, bound):
        """L^k of a connected base on N vertices keeps at least N - k, so a base
        with N - k over the cap is never built, and the bound is refused."""
        family = spec.replace("line(", "").split("(")[0]

        def refuse(*args):
            pytest.fail(f"built the {family} base")

        arity, rule, _ = _FAMILY_TABLE[family]
        monkeypatch.setitem(_FAMILY_TABLE, family, (arity, rule, refuse))
        start = time.perf_counter()
        assert parse_graph_spec(spec).check() == bound
        with pytest.raises(ValueError, match=f"graph has {bound}$"):
            compute_csf(spec)
        assert time.perf_counter() - start < 0.5  # building the sun alone takes about 1 s

    @pytest.mark.parametrize("d", [1000000, 100000000])
    def test_large_edges_base_walks_only_the_ends_of_its_edges(self, d):
        """Isolated vertices add nothing to a line graph, so an ``edges`` base
        on d vertices is counted on the ends of its edges alone."""
        start = time.perf_counter()
        assert parse_graph_spec(f"line(line(edges[{d}:(0,1),(1,2)]))").check() == 1
        assert time.perf_counter() - start < 0.2  # 0.6 s at 10**6 vertices, walking every vertex
        spec = f"edges[{d}:(7,{d - 1}),({d - 1},3),(3,7),(3,40)]"  # a triangle and a pendant edge
        assert [parse_graph_spec("line(" * k + spec + ")" * k).check() for k in (1, 2, 3, 4)] == [4, 5, 8, 18]

    def test_scattered_edges_base_counts_as_built(self):
        spec = "edges[60:(59,2),(2,31),(31,59),(31,5),(5,17),(17,2),(44,17)]"
        for k in (1, 2, 3):
            nested = "line(" * k + spec + ")" * k
            assert parse_graph_spec(nested).check() == parse_graph_spec(nested).build().n, k

    def test_malformed_inner_line_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^line takes 1 argument\(s\), got 0$"):
            GraphSpec("line", (GraphSpec("line", ()),)).check()


# ------------------------------------------------------- canonical specs

#: the families whose builders have symmetries ``GraphSpec.canonical`` folds
SYMMETRIC_FAMILIES = ("sun", "csun", "spider", "dumbbell", "cdumbbell")
CANONICAL_CAP = 12


def _compositions(total):
    """Every tuple of positive integers summing to ``total``."""
    for parts in range(1, total + 1):
        for cuts in itertools.combinations(range(1, total), parts - 1):
            yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


def _symmetric_specs(cap):
    """Every spec of the five families on at most ``cap`` vertices."""
    for total in range(1, cap):
        for rays in _compositions(total):
            yield GraphSpec("spider", rays)
            if len(rays) >= 3 and len(rays) + total <= cap:
                yield GraphSpec("sun", (len(rays), rays))
                yield GraphSpec("csun", (len(rays), rays))
    for family in ("dumbbell", "cdumbbell"):
        for m, n in product(range(3, cap + 1), repeat=2):
            for l in range(-1, cap - m - n + 1):
                yield GraphSpec(family, (m, l, n))


def _dihedral(n):
    """The rotations and reflections of positions 0..n-1, each as the list
    of old positions that the new positions read."""
    for r in range(n):
        for step in (1, -1):
            yield [(r + step * i) % n for i in range(n)]


def _matching(old, new):
    """A permutation ``order`` with ``new[t] == old[order[t]]``."""
    free = list(range(len(old)))
    order = []
    for x in new:
        i = next(i for i in free if old[i] == x)
        free.remove(i)
        order.append(i)
    return order


def _orderings(items):
    """Every distinct ordering of a tuple."""
    if not items:
        yield ()
    for x in sorted(set(items)):
        rest = list(items)
        rest.remove(x)
        yield from ((x,) + tail for tail in _orderings(tuple(rest)))


def _runs(start, lengths):
    """Consecutive vertex runs of the given lengths from ``start``: the rays
    of a sun or the legs of a spider in builder order."""
    out = []
    for k in lengths:
        out.append(list(range(start, start + k)))
        start += k
    return out


def _dumbbell_layout(m, l, n):
    """First body, connector path and second body of D(m, l, n) in builder order."""
    if l < 0:
        return list(range(m)), [], [0, *range(m, m + n - 1)]
    return list(range(m)), list(range(m, m + l)), list(range(m + l, m + l + n))


def _vertex_maps(spec, canon):
    """Candidate maps {vertex of spec's graph: vertex of canon's graph}, read
    off the two builders' layouts."""
    f, a, b = spec.family, spec.args, canon.args
    if f in ("sun", "csun"):
        n = a[0]
        old_rays, new_rays = _runs(n, a[1]), _runs(n, b[1])
        for order in _dihedral(n) if f == "sun" else [_matching(a[1], b[1])]:
            if [a[1][i] for i in order] == list(b[1]):
                vmap = {}
                for t, i in enumerate(order):
                    vmap[i] = t
                    vmap.update(zip(old_rays[i], new_rays[t]))
                yield vmap
    elif f == "spider":
        vmap = {0: 0}
        old_legs, new_legs = _runs(1, a), _runs(1, b)
        for t, i in enumerate(_matching(a, b)):
            vmap.update(zip(old_legs[i], new_legs[t]))
        yield vmap
    else:
        first, path, second = _dumbbell_layout(*a)
        if a == b:
            yield {v: v for v in range(spec.check())}
        first2, path2, second2 = _dumbbell_layout(*b)
        yield dict(zip(first + path + second, second2 + path2[::-1] + first2))


class TestCanonicalSpecs:
    """``GraphSpec.canonical`` names one isomorphic spec per class the
    builders' symmetries give, for every spec of the five families up to
    12 vertices."""

    SPECS = list(_symmetric_specs(CANONICAL_CAP))

    def test_every_family_and_size_is_covered(self):
        assert {s.family for s in self.SPECS} == set(SYMMETRIC_FAMILIES)
        assert max(s.check() for s in self.SPECS) == CANONICAL_CAP
        assert len(set(self.SPECS)) == len(self.SPECS)

    def test_isomorphic_by_an_explicit_vertex_map(self):
        for spec in self.SPECS:
            canon = spec.canonical()
            assert canon.family == spec.family and canon.check() == spec.check(), spec
            g, h = spec.build(), canon.build()
            for vmap in _vertex_maps(spec, canon):
                assert sorted(vmap) == sorted(vmap.values()) == list(range(g.n)), (spec, vmap)
                if {tuple(sorted((vmap[u], vmap[v]))) for u, v in g.edges} == h.edges:
                    break
            else:
                pytest.fail(f"no vertex map takes {spec} onto {canon}")

    def test_idempotent(self):
        for spec in self.SPECS:
            canon = spec.canonical()
            assert canon.canonical() == canon, spec

    def test_swaps_rotations_reflections_and_permutations_collapse(self):
        """Every spec a symmetry reaches is in the enumeration, and all of
        them get one canonical spec, which no other class gets."""
        def variants(spec):
            f, a = spec.family, spec.args
            if f == "sun":
                return {GraphSpec(f, (a[0], tuple(a[1][i] for i in order))) for order in _dihedral(a[0])}
            if f == "csun":
                return {GraphSpec(f, (a[0], rays)) for rays in _orderings(a[1])}
            if f == "spider":
                return {GraphSpec(f, legs) for legs in _orderings(a)}
            return {spec, GraphSpec(f, a[::-1])}

        specs = set(self.SPECS)
        owner = {}
        for spec in self.SPECS:
            reached = variants(spec)
            assert spec in reached and reached <= specs, spec
            assert {s.canonical() for s in reached} == {spec.canonical()}, spec
            assert owner.setdefault(spec.canonical(), frozenset(reached)) == frozenset(reached), spec
        assert sum(map(len, set(owner.values()))) == len(specs)

    def test_known_representatives(self):
        for text, want in [
            ("dumbbell(3,2,7)", "dumbbell(7,2,3)"),
            ("cdumbbell(3,-1,4)", "cdumbbell(4,-1,3)"),
            ("cdumbbell(7,2,3)", "cdumbbell(7,2,3)"),
            ("sun(3;1,4,6)", "sun(3;6,4,1)"),
            ("sun(4;1,2,1,3)", "sun(4;3,1,2,1)"),
            ("csun(4;1,3,2,3)", "csun(4;3,3,2,1)"),
            ("spider(6,5,2)", "spider(2,5,6)"),
        ]:
            assert str(parse_graph_spec(text).canonical()) == want

    @pytest.mark.parametrize(
        "text", ["path(4)", "cycle(5)", "complete(4)", "tadpole(4,2)", "lollipop(4,2)", "sdumbbell(3,1,5)",
                 "line(dumbbell(3,0,4))", "union(spider(3,1),sun(3;2,1,1))", "edges[3:(0,1)]"]
    )
    def test_other_families_are_unchanged(self, text):
        spec = parse_graph_spec(text)
        assert spec.canonical() is spec
