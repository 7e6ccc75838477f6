import json

import pytest

from chromsym import identities
from chromsym.csf import compute_csf
from chromsym.graphs import cycle_graph, dumbbell_graph, path_graph, sun_graph
from chromsym.identities import (
    DEFAULT_GRID_VERTEX_CAP,
    IdentityReport,
    VERIFIERS,
    first_triangle,
    iter_grid,
    run_grid,
    verify_cdumbbell_full_expansion,
    verify_cdumbbell_lollipop_expansion,
    verify_cdumbbell_recursion,
    verify_chromatic_closed_forms,
    verify_distinguishability,
    verify_dumbbell_full_expansion,
    verify_dumbbell_recursion,
    verify_dumbbell_tadpole_expansion,
    verify_small_sun_coefficient,
    verify_sun_coefficient,
    verify_sun_spider_reduction,
    verify_triple_deletion,
)
from chromsym.symfunc import SymFunc


def assert_verified(report):
    assert isinstance(report, IdentityReport)
    assert report.equal, f"{report.name}{report.params} differ by {report.difference}"
    assert not report.difference.terms


class TestTripleDeletion:
    def test_auto_triangle(self):
        rep = verify_triple_deletion("sun(3;1,1,1)")
        assert_verified(rep)
        assert rep.name == "triple_deletion"

    def test_explicit_edges(self):
        g = cycle_graph(3)
        rep = verify_triple_deletion(g, (0, 1), (0, 2), (1, 2))
        assert_verified(rep)

    def test_first_triangle_is_lex_first(self):
        g = sun_graph(4, (1, 1, 1, 1), body="complete")
        tri = first_triangle(g)
        assert tri == ((0, 1), (0, 2), (1, 2))
        assert first_triangle(path_graph(5)) is None

    def test_triangle_free_rejected(self):
        with pytest.raises(ValueError):
            verify_triple_deletion("cycle(5)")

    def test_non_triangle_edges_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            verify_triple_deletion(g, (0, 1), (1, 2), (2, 3))
        with pytest.raises(ValueError):
            verify_triple_deletion(cycle_graph(3), (0, 1), (0, 1), (1, 2))
        with pytest.raises(ValueError):
            verify_triple_deletion(cycle_graph(3), (0, 1), (0, 2), (1, 3))


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
    def test_full_expansion(self, m, l, n):
        assert_verified(verify_dumbbell_full_expansion(m, l, n))

    @pytest.mark.parametrize("m,l,n", CASES)
    def test_cdumbbell_recursion(self, m, l, n):
        assert_verified(verify_cdumbbell_recursion(m, l, n))

    @pytest.mark.parametrize("m,l,n", CASES)
    def test_cdumbbell_lollipop_expansion(self, m, l, n):
        assert_verified(verify_cdumbbell_lollipop_expansion(m, l, n))

    @pytest.mark.parametrize("m,l,n", CASES)
    def test_cdumbbell_full_expansion(self, m, l, n):
        assert_verified(verify_cdumbbell_full_expansion(m, l, n))

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
        # a sun collides only with a sun of another body size or ray sum
        rep = verify_distinguishability("sun", 7)
        assert not rep.equal
        assert rep.params["collision"] == ["sun(3;1,1,1)", "sun(3;1,1,2)"]
        assert rep.params["instances"] == 4


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


class TestGrids:
    def test_registry_covers_every_verifier_family(self):
        assert set(VERIFIERS) >= {
            "triple_deletion",
            "sun_coefficient",
            "small_sun_coefficient",
            "sun_spider_reduction",
            "dumbbell_recursion",
            "dumbbell_tadpole_expansion",
            "dumbbell_full_expansion",
            "cdumbbell_recursion",
            "cdumbbell_lollipop_expansion",
            "cdumbbell_full_expansion",
            "chromatic_closed_forms",
            "distinguishability",
        }

    def test_unknown_grid(self):
        with pytest.raises(ValueError):
            list(iter_grid("widget"))
        with pytest.raises(ValueError):
            run_grid("widget")

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
            "dumbbell_full_expansion",
            "cdumbbell_recursion",
            "cdumbbell_lollipop_expansion",
            "cdumbbell_full_expansion",
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

    def test_default_cap_is_contractual(self):
        assert DEFAULT_GRID_VERTEX_CAP == 14


class TestIdentityContent:
    def test_recursion_sides_match_direct_computation(self):
        # the verified equation reproduces the independently computed function
        rep = verify_dumbbell_recursion(4, 1, 3)
        direct, _ = compute_csf(dumbbell_graph(4, 1, 3))
        assert rep.lhs == direct

    def test_verifier_names_unique(self):
        names = [verify_sun_coefficient(3, 1).name, verify_small_sun_coefficient(2, 1, 2).name]
        assert len(set(names)) == len(names)
