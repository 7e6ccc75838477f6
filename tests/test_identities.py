import ast
import hashlib
import json
from pathlib import Path

import pytest

from chromsym import cli, csf as csf_module, identities
from chromsym.csf import CSF_EDGE_CAP, _guard, compute_csf
from chromsym.graphs import Graph, GraphSpec, cycle_graph, dumbbell_graph, parse_graph_spec, path_graph, sun_graph
from chromsym.identities import (
    DEFAULT_GRID_VERTEX_CAP,
    IdentityReport,
    VERIFIERS,
    first_triangle,
    iter_grid,
    run_grid,
    verify_cdumbbell_lollipop_expansion,
    verify_cdumbbell_recursion,
    verify_chromatic_closed_forms,
    verify_distinguishability,
    verify_dumbbell_recursion,
    verify_dumbbell_tadpole_expansion,
    verify_small_sun_coefficient,
    verify_sun_coefficient,
    verify_sun_spider_reduction,
    verify_triple_deletion,
)
from chromsym.positivity import ConnectedPartitionWitness, PositivityReport
from chromsym.symfunc import Basis, SymFunc


def assert_verified(report):
    assert isinstance(report, IdentityReport)
    assert report.equal, f"{report.name}{report.params} differ by {report.difference}"
    assert not report.difference.terms


class TestTripleDeletion:
    def test_auto_triangle(self):
        rep = verify_triple_deletion("sun(3;1,1,1)")
        assert_verified(rep)
        assert rep.name == "triple_deletion"
        rep = verify_triple_deletion(cycle_graph(3))
        assert_verified(rep)
        assert rep.params["triangle"] == [(0, 1), (0, 2), (1, 2)]

    def test_first_triangle_is_lex_first(self):
        g = sun_graph(4, (1, 1, 1, 1), body="complete")
        tri = first_triangle(g)
        assert tri == ((0, 1), (0, 2), (1, 2))
        assert first_triangle(path_graph(5)) is None

    def test_triangle_free_rejected(self):
        with pytest.raises(ValueError):
            verify_triple_deletion("cycle(5)")


class TestCoefficientIdentities:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (3, 3)])
    def test_uniform_sun(self, n, k):
        assert_verified(verify_sun_coefficient(n, k))

    @pytest.mark.parametrize("abc", [(2, 1, 2), (2, 2, 2), (3, 2, 2), (3, 3, 1), (4, 3, 2)])
    def test_small_sun(self, abc):
        assert_verified(verify_small_sun_coefficient(*abc))

    def test_small_sun_requires_admissible_type(self):
        with pytest.raises(ValueError):
            verify_small_sun_coefficient(2, 1, 1)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (1, 4), (3, 2)])
    def test_sun_spider_reduction(self, a, b):
        assert_verified(verify_sun_spider_reduction(a, b))


class TestDumbbellIdentities:
    CASES = [(4, 0, 3), (3, 0, 3), (3, -1, 3), (4, 1, 4), (5, -1, 3)]

    @pytest.mark.parametrize("m,l,n", CASES)
    def test_recursion(self, m, l, n):
        assert_verified(verify_dumbbell_recursion(m, l, n))

    @pytest.mark.parametrize("m,l,n", CASES)
    def test_tadpole_expansion(self, m, l, n):
        assert_verified(verify_dumbbell_tadpole_expansion(m, l, n))

    @pytest.mark.parametrize("m,l,n", CASES)
    def test_cdumbbell_recursion(self, m, l, n):
        assert_verified(verify_cdumbbell_recursion(m, l, n))

    @pytest.mark.parametrize("m,l,n", CASES)
    def test_cdumbbell_lollipop_expansion(self, m, l, n):
        assert_verified(verify_cdumbbell_lollipop_expansion(m, l, n))

    def test_bad_params(self):
        for fn in (
            verify_dumbbell_recursion,
            verify_dumbbell_tadpole_expansion,
            verify_cdumbbell_recursion,
        ):
            with pytest.raises(ValueError):
                fn(2, 0, 3)
            with pytest.raises(ValueError):
                fn(3, -2, 3)


class TestChromaticIdentity:
    @pytest.mark.parametrize(
        "spec", ["sun(3;1,1,1)", "dumbbell(3,0,3)", "cdumbbell(4,1,3)", "sdumbbell(3,2,4)"]
    )
    def test_closed_matches_dc(self, spec):
        rep = verify_chromatic_closed_forms(spec)
        assert rep.equal
        assert rep.difference == rep.lhs - rep.rhs

    def test_rejects_family_without_closed_form(self):
        with pytest.raises(ValueError):
            verify_chromatic_closed_forms("path(5)")

    def test_cliques_past_the_edge_bound(self):
        # 343 edges, all in two K_19 blocks and a bridge, none evaluated
        rep = verify_chromatic_closed_forms("cdumbbell(19,0,19)")
        assert rep.equal and rep.lhs.degree == 38

    def test_refuses_a_built_graph(self, monkeypatch):
        def refuse(*args):
            pytest.fail("a graph was built or expanded")

        monkeypatch.setattr(identities, "chromatic_poly_dc", refuse)
        monkeypatch.setattr(GraphSpec, "build", refuse)
        for target in (cycle_graph(4), sun_graph(3, (1, 1, 1))):
            with pytest.raises(ValueError, match="needs a family spec"):
                verify_chromatic_closed_forms(target)
            with pytest.raises(ValueError, match="needs a family spec"):
                csf_module.chromatic_poly_closed(target)

    def test_closed_side_first(self, monkeypatch):
        def refuse(g):
            pytest.fail("deletion-contraction ran before the closed form was looked up")

        monkeypatch.setattr(identities, "chromatic_poly_dc", refuse)
        with pytest.raises(ValueError):
            verify_chromatic_closed_forms("path(3)")


class TestDistinguishability:
    def test_dumbbell_family_distinct(self):
        rep = verify_distinguishability("dumbbell", 9)
        assert rep.equal
        assert rep.params["family"] == "dumbbell"
        assert rep.params["instances"] > 1
        assert rep.params["collision"] is None
        assert rep.lhs is None and rep.rhs is None and rep.difference is None

    def test_cdumbbell_family_distinct(self):
        rep = verify_distinguishability("cdumbbell", 8)
        assert rep.equal

    def test_sun_total_determined(self):
        rep = verify_distinguishability("sun", 8)
        assert rep.equal

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify_distinguishability("widget", 9)

    def test_collision_names_the_first_pair(self, monkeypatch):
        monkeypatch.setattr(identities, "_csf_key", lambda f: "same")
        rep = verify_distinguishability("dumbbell", 7)
        assert not rep.equal
        assert rep.params["collision"] == ["dumbbell(3,-1,3)", "dumbbell(3,0,3)"]
        assert rep.params["instances"] == len(list(identities._canonical_dumbbell_triples(7)))
        # a sun collides only with a sun that is not isomorphic to it
        rep = verify_distinguishability("sun", 7)
        assert not rep.equal
        assert rep.params["collision"] == ["sun(3;1,1,1)", "sun(3;1,1,2)"]
        assert rep.params["instances"] == 4

    def test_sun_key_is_the_isomorphism_class(self, monkeypatch):
        """A planted collision between non-isomorphic suns of equal body size
        and ray sum: the old key, (n, ray sum), lets it through, and the
        canonical spec catches it."""
        planted = {"sun(4;1,2,1,2)": "sun(4;1,1,2,2)"}  # 1212 and 1122 are different bracelets
        oracle = identities._oracle

        def planted_oracle(spec):
            return oracle(parse_graph_spec(planted.get(str(spec), str(spec))))

        def old_claim(cap):
            seen = {}
            for spec in map(parse_graph_spec, identities._sun_specs(cap)):
                key = (spec.args[0], sum(spec.args[1]))
                if seen.setdefault(identities._csf_key(planted_oracle(spec)), key) != key:
                    return False
            return True

        assert old_claim(10)
        assert verify_distinguishability("sun", 10).equal
        monkeypatch.setattr(identities, "_oracle", planted_oracle)
        rep = verify_distinguishability("sun", 10)
        assert not rep.equal
        assert rep.params["collision"] == ["sun(4;1,1,2,2)", "sun(4;1,2,1,2)"]


class TestOracleMemo:
    def test_one_dp_run_per_isomorphism_class(self, monkeypatch):
        runs = []
        subsets = csf_module._subset_counts
        monkeypatch.setattr(csf_module, "_subset_counts", lambda n, e: runs.append(Graph(n, e)) or subsets(n, e))
        identities._memo.cache_clear()
        a = identities._oracle(GraphSpec("dumbbell", (3, 2, 7)))
        b = identities._oracle(GraphSpec("dumbbell", (7, 2, 3)))
        assert runs == [dumbbell_graph(7, 2, 3)]
        assert a == b == compute_csf("dumbbell(3,2,7)")[0]

    def test_refusals_come_before_the_canonical_form(self, monkeypatch):
        def refuse(self):
            pytest.fail("canonical form of a spec that does not pass its checks")

        monkeypatch.setattr(GraphSpec, "canonical", refuse)
        for spec in (GraphSpec("sun", (3, (1, 1))), GraphSpec("dumbbell", (2, 0, 3)), GraphSpec("spider", (30, 30))):
            with pytest.raises(ValueError):
                identities._oracle(spec)


class TestReportShape:
    def test_json_round_trips(self):
        rep = verify_dumbbell_recursion(4, 0, 3)
        obj = rep.to_json_obj()
        assert set(obj) == {"name", "params", "equal", "lhs", "rhs", "difference"}
        assert obj["equal"] is True
        assert obj["params"] == {"m": 4, "l": 0, "n": 3}
        text = json.dumps(obj)
        assert json.loads(text) == obj

    def test_sides_are_symfuncs(self):
        rep = verify_sun_spider_reduction(1, 2)
        assert isinstance(rep.lhs, SymFunc) and isinstance(rep.rhs, SymFunc)
        assert rep.lhs.degree == rep.rhs.degree


#: the argv of each of the benchmark's ``CLI_CALLS``, joined by spaces, read
#: from its source without importing it
CLI_CALLS = next(
    [" ".join(args) for args, _ in ast.literal_eval(node.value)]
    for node in ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text()).body
    if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CLI_CALLS"]
)
#: CLI_CALLS argv -> its ``--json`` run's exit status and the first 16 hex
#: digits of the sha256 of its stdout, so any change to that output shows up
#: as an edit here
CLI_JSON_SHA256 = {
    "csf sun(3;3,3,3) --basis s": (0, "ab709f963a81fc2c"),
    "csf dumbbell(4,1,8) --basis s": (0, "02bd00824eb6cb20"),
    "csf sun(4;3,2,3,2) --basis s": (0, "c88f069bb401aea3"),
    "csf cdumbbell(5,3,7) --basis s": (0, "89b10ad365efcb61"),
    "csf spider(4,4,3) --basis p": (0, "ccc6e8b92f9213fa"),
    "csf tadpole(6,7) --basis p": (0, "b3433b2c5fdee0c0"),
    "csf csun(4;3,2,3,2) --basis p": (0, "7023bb14e1b3da32"),
    "csf sdumbbell(5,4,6) --basis p": (0, "0b65b8a1ff830901"),
    "csf dumbbell(5,6,5) --basis p": (0, "0e6b36ce84822d68"),
    "positivity sun(3;4,4,3) --basis s": (0, "ce634f165fa49112"),
    "scan sun(3;4,4,3)": (0, "21f7c4592188a820"),
    "scan sun(4;2,2,2,2)": (0, "0f0272fbb0c82e2c"),
    "chrompoly line(cdumbbell(4,0,4))": (0, "122957a17d6a1655"),
    "verify cdumbbell-recursion 4,2,6": (0, "84aa7b6c1eab6647"),
    "verify dumbbell-recursion 4,3,7": (0, "ac13d1487820da64"),
    "verify chromatic-closed-forms cdumbbell(3,0,8)": (0, "83d0c44fc6b28a5c"),
    "verify small-sun-coefficient 4,3,3": (0, "7a98bf2dbad3d913"),
    "verify triple-deletion cdumbbell(4,0,4)": (0, "0f1df5b39d59e5af"),
}


class TestGrids:
    def test_registry_covers_every_verifier_family(self):
        assert set(VERIFIERS) >= {
            "triple_deletion",
            "sun_coefficient",
            "small_sun_coefficient",
            "sun_spider_reduction",
            "dumbbell_recursion",
            "dumbbell_tadpole_expansion",
            "cdumbbell_recursion",
            "cdumbbell_lollipop_expansion",
            "chromatic_closed_forms",
            "distinguishability",
        }

    def test_unknown_grid(self):
        with pytest.raises(ValueError):
            list(iter_grid("widget"))
        with pytest.raises(ValueError):
            run_grid("widget")

    def test_unknown_grid_is_refused_at_the_call(self):
        with pytest.raises(ValueError, match="unknown identity 'no_such_identity'"):
            iter_grid("no_such_identity")

    def test_iter_grid_yields_kwargs(self):
        rows = list(iter_grid("dumbbell_recursion", vertex_cap=9))
        assert rows
        assert all(set(kw) == {"m", "l", "n"} for kw in rows)
        assert all(kw["m"] + kw["n"] + kw["l"] <= 9 for kw in rows)

    @pytest.mark.parametrize(
        "name",
        [
            "sun_coefficient",
            "small_sun_coefficient",
            "sun_spider_reduction",
            "dumbbell_recursion",
            "dumbbell_tadpole_expansion",
            "cdumbbell_recursion",
            "cdumbbell_lollipop_expansion",
        ],
    )
    def test_small_grids_all_verify(self, name):
        reports = run_grid(name, vertex_cap=9)
        assert reports
        assert all(r.equal for r in reports)

    def test_triple_deletion_grid_small(self):
        reports = run_grid("triple_deletion", vertex_cap=7)
        assert reports and all(r.equal for r in reports)

    def test_chromatic_grid_small(self):
        reports = run_grid("chromatic_closed_forms", vertex_cap=8)
        assert reports and all(r.equal for r in reports)

    def test_distinguishability_grid_small(self):
        reports = run_grid("distinguishability", vertex_cap=8)
        assert {r.params["family"] for r in reports} == {"dumbbell", "cdumbbell", "sun"}
        assert all(r.equal for r in reports)

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    def test_reports_carry_their_table_name(self, name):
        reports = run_grid(name, 8)
        assert reports and {r.name for r in reports} == {name}

    def test_canonical_dumbbell_triples_in_loop_order(self):
        for cap in range(15):
            expected = [
                (m, l, n)
                for m in range(3, cap + 1)
                for n in range(m, cap + 1)
                for l in range(-1, cap - m - n + 1)
            ]
            assert list(identities._canonical_dumbbell_triples(cap)) == expected

    def test_cdumbbell_grid_counts_edges_without_building(self, monkeypatch):
        """The complete-dumbbell grid keeps the dumbbell grid's triples of at
        most 26 edges, counted without a build, and stops growing at cap 25."""
        for cap in range(26):
            built = [kw for kw in identities._grid_dumbbell(cap) if len(dumbbell_graph(**kw, kind="complete").edges) <= 26]
            assert list(iter_grid("cdumbbell_recursion", cap)) == built

        def refuse(*args):
            pytest.fail("graph built")

        monkeypatch.setattr(Graph, "__init__", refuse)
        assert len(built) == 169 and list(iter_grid("cdumbbell_recursion", 60)) == built

    def test_default_cap_is_contractual(self):
        assert DEFAULT_GRID_VERTEX_CAP == 14

    def test_chromatic_grid_keeps_every_row_to_its_cap(self):
        """Cap 20 keeps its 12,105 rows; cap 21, of 19,094, is refused before its first."""
        assert identities.CHROMATIC_GRID_CAP == 20
        assert sum(1 for _ in iter_grid("chromatic_closed_forms", 20)) == 12105
        with pytest.raises(ValueError, match=r"^chromatic_closed_forms grid guarded at cap 20; got 21$"):
            next(iter_grid("chromatic_closed_forms", 21))

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    def test_grid_json_is_pinned(self, name):
        text = json.dumps([r.to_json_obj() for r in run_grid(name, 14)], separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == GRID_JSON_SHA256[name]

    @pytest.mark.parametrize("call", CLI_CALLS)
    def test_cli_call_json_is_pinned(self, call, capsys):
        status = cli.main([*call.split(), "--json"])
        assert (status, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]) == CLI_JSON_SHA256[call]


#: identity -> the first 16 hex digits of the sha256 of its ``run_grid(name, 14)``
#: JSON, so any change to a grid's output shows up as an edit here
GRID_JSON_SHA256 = {
    "triple_deletion": "fca45b2f0d8a317f",
    "sun_coefficient": "855f81da9fd7b6e7",
    "small_sun_coefficient": "43b0fd2be0ea37e1",
    "sun_spider_reduction": "ab5068c957bf66a9",
    "dumbbell_recursion": "e6d8c862c85034bd",
    "dumbbell_tadpole_expansion": "db6193370fb4ea43",
    "cdumbbell_recursion": "0089b6a8f269b609",
    "cdumbbell_lollipop_expansion": "8b456ff8164de4ec",
    "chromatic_closed_forms": "d2a58cd914102128",
    "distinguishability": "ff8cf60534d5de1f",
}


#: each closed form the dumbbell verifiers read -> the identities that read it
CLOSED_FORM_READERS = {
    "csf_dumbbell_closed": ("dumbbell_recursion", "dumbbell_tadpole_expansion"),
    "csf_tadpole_closed": ("dumbbell_recursion",),
    "csf_cycle_closed": ("dumbbell_recursion",),
    "csf_complete_dumbbell_closed": ("cdumbbell_recursion", "cdumbbell_lollipop_expansion"),
    "csf_lollipop_closed": ("cdumbbell_recursion",),
    "csf_complete_closed": ("cdumbbell_recursion",),
}
DUMBBELL_IDENTITIES = ("dumbbell_recursion", "dumbbell_tadpole_expansion", "cdumbbell_recursion", "cdumbbell_lollipop_expansion")


@pytest.mark.parametrize("form", CLOSED_FORM_READERS)
def test_a_wrong_closed_form_fails_the_identities_that_read_it(monkeypatch, form):
    """A wrong term planted in one closed form, through ``identities``' globals
    so that no memo of ``csf`` keeps it, fails every identity that reads the
    form on its cap-8 grid and no other dumbbell identity."""
    right = getattr(identities, form)

    def wrong(*args):
        f = right(*args)
        return f + SymFunc.single(Basis.E, (f.degree,))

    monkeypatch.setattr(identities, form, wrong)
    for name in DUMBBELL_IDENTITIES:
        reports = run_grid(name, 8)
        assert reports and all(r.equal for r in reports) is (name not in CLOSED_FORM_READERS[form]), name


class TestIdentityContent:
    def test_recursion_sides_match_direct_computation(self):
        # the verified equation reproduces the independently computed function
        rep = verify_dumbbell_recursion(4, 1, 3)
        direct, _ = compute_csf(dumbbell_graph(4, 1, 3))
        assert rep.lhs == direct

    def test_verifier_names_unique(self):
        names = [verify_sun_coefficient(3, 1).name, verify_small_sun_coefficient(2, 1, 2).name]
        assert len(set(names)) == len(names)


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: GraphSpec("sun", (3, (1, 2, 1))), "GraphSpec(family='sun', args=(3, (1, 2, 1)))"),
        (
            lambda: PositivityReport(False, Basis.E, ((3, 3), -6), "subsets"),
            "PositivityReport(positive=False, basis=<Basis.E: 'e'>, witness=((3, 3), -6), engine='subsets')",
        ),
        (lambda: ConnectedPartitionWitness(((0, 1), (2,))), "ConnectedPartitionWitness(blocks=((0, 1), (2,)))"),
        (
            lambda: IdentityReport("x", {"n": 3}, None, None, True, None),
            "IdentityReport(name='x', params={'n': 3}, lhs=None, rhs=None, equal=True, difference=None)",
        ),
    ],
    ids=["GraphSpec", "PositivityReport", "ConnectedPartitionWitness", "IdentityReport"],
)
def test_records_are_read_only_values(make, text):
    """The result records: repr with field names, equality by value, a hash
    when every field is hashable (not ``params``), and no assignment."""
    record, twin = make(), make()
    assert repr(record) == text
    assert record == twin and record is not twin
    if not isinstance(getattr(record, "params", None), dict):
        assert hash(record) == hash(twin)
    field = text.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_each_grid_bound_is_the_last_cap_its_guards_pass(monkeypatch):
    """With ``_memo`` replaced by the oracle's two guards and each closed form
    by an empty function of its degree, the sum of its arguments, no CSF is
    computed: every row of a guard-bounded grid passes the guards at its
    bound, and the grid one cap above yields a row they refuse.  The grids
    with no bound pass at cap 60; the chromatic grid's bound is a row count,
    pinned by ``test_chromatic_grid_keeps_every_row_to_its_cap``."""

    def guards(g):
        _guard("subset oracle", g.n)
        _guard("subset oracle", len(g.edges), CSF_EDGE_CAP, "edges")
        return SymFunc(Basis.E, g.n, {})

    monkeypatch.setattr(identities, "_memo", guards)
    for form in [name for name in vars(identities) if name.startswith("csf_") and name.endswith("_closed")]:
        monkeypatch.setattr(identities, form, lambda *a: SymFunc(Basis.E, sum(a), {}))
    bounds = {}
    for name, (verify, grid, bound) in identities._IDENTITIES.items():
        if name == "chromatic_closed_forms":
            continue
        bounds[name] = bound
        for kw in iter_grid(name, 60 if bound is None else bound):
            verify(**kw)
        if bound is not None:
            with pytest.raises(ValueError, match=f"^subset oracle guarded at {CSF_EDGE_CAP} edges"):
                for kw in grid(bound + 1):
                    verify(**kw)
    sun, dumbbell = CSF_EDGE_CAP, CSF_EDGE_CAP - 1
    assert bounds == {
        "triple_deletion": None,
        "sun_coefficient": sun,
        "small_sun_coefficient": sun,
        "sun_spider_reduction": sun,
        "dumbbell_recursion": dumbbell,
        "dumbbell_tadpole_expansion": dumbbell,
        "cdumbbell_recursion": None,
        "cdumbbell_lollipop_expansion": None,
        "distinguishability": None,
    }
