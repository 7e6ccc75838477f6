"""Acceptance gate: ten exact end-to-end checks, one test and one line each.

Every check is exact (zero tolerance).  Each test prints a single
``[PASS]``/``[FAIL]`` line for its criterion; failures also carry the first
few offending instances in the assertion message.
"""

from fractions import Fraction
from functools import lru_cache

from test_graphs import add_complete, attach

from chromsym.csf import (
    chromatic_poly_closed,
    chromatic_poly_dc,
    compute_csf,
    csf_cycle_closed,
    csf_path_closed,
    csf_subsets,
    csf_dc,
)
from chromsym.graphs import (
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
from chromsym.identities import run_grid, verify_distinguishability
from chromsym.partitions import Partition, partitions_of
from chromsym.positivity import (
    e_positivity,
    gcd_missing_type,
    has_connected_partition,
    sun_matching_criterion,
    uniform_sun_coefficient,
    uniform_sun_missing_type,
)
from chromsym.symfunc import Basis, SymFunc, e_to_p, e_to_s, p_to_e, s_to_e


def conclude(num, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num:02d}: {title}")
    shown = "; ".join(str(f) for f in failures[:5])
    assert not failures, f"criterion {num:02d} ({title}): {shown}"


def uniform_sun_spec(n, k, body="sun"):
    return f"{body}({n};{','.join([str(k)] * n)})"


@lru_cache(maxsize=1)
def positive_family_instances():
    """Every closed-form dumbbell instance whose e-positivity criterion 8 asserts."""
    specs = []
    for m in range(3, 13):
        for l in range(-1, 12):
            if m + l + 3 <= 14:
                specs.append(f"dumbbell({m},{l},3)")
    for m in range(3, 13):
        for n in range(m, 13):
            for l in range(-1, 12):
                if m + n + l <= 14:
                    specs.append(f"cdumbbell({m},{l},{n})")
    for m in range(3, 13):
        for n in range(3, 13):
            for l in range(-1, 12):
                if m + n + l <= 14:
                    specs.append(f"sdumbbell({m},{l},{n})")
    return [(spec, compute_csf(spec)) for spec in specs]


def builder_corpus(max_edges):
    graphs = []
    for n in range(1, 9):
        graphs.append(path_graph(n))
    for n in range(3, 9):
        graphs.append(cycle_graph(n))
    for n in range(2, 7):
        graphs.append(complete_graph(n))
    for legs in [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1), (1, 1, 1, 1), (2, 2, 1, 1)]:
        graphs.append(spider_graph(legs))
    for n, rays in [
        (3, (1, 1, 1)),
        (3, (2, 1, 1)),
        (3, (2, 2, 2)),
        (4, (1, 1, 1, 1)),
        (4, (2, 1, 2, 1)),
        (5, (1, 1, 1, 1, 1)),
    ]:
        graphs.append(sun_graph(n, rays))
        graphs.append(sun_graph(n, rays, body="complete"))
    for a, b in [(3, 1), (3, 4), (4, 2), (5, 3), (6, 2)]:
        graphs.append(tadpole_graph(a, b))
    for a, b in [(3, 1), (4, 2), (5, 1), (3, 5)]:
        graphs.append(lollipop_graph(a, b))
    for kind in ("ordinary", "complete", "semicomplete"):
        for m, l, n in [(3, -1, 3), (3, 0, 3), (3, 1, 3), (3, 0, 4), (4, 1, 4), (3, 2, 5)]:
            graphs.append(dumbbell_graph(m, l, n, kind=kind))
    graphs.append(line_graph(spider_graph((2, 2, 2))))
    graphs.append(attach(cycle_graph(4), [(0, path_graph(2), 0)]))
    graphs.append(add_complete(path_graph(3), 2, 3))
    graphs.append(disjoint_union(path_graph(3), cycle_graph(3)))
    seen, out = set(), []
    for g in graphs:
        if len(g.edges) <= max_edges and g not in seen:
            seen.add(g)
            out.append(g)
    return out


def test_criterion_01_uniform_sun_coefficients():
    failures = []
    for n, k, printed in [(4, 1, -24), (3, 1, -6), (3, 2, -18)]:
        lam = uniform_sun_missing_type(n, k)
        f = p_to_e(csf_subsets(parse_graph_spec(uniform_sun_spec(n, k)).build()))
        got = f.terms.get(lam, Fraction(0))
        formula = uniform_sun_coefficient(n, k)
        if not (got == printed == formula):
            failures.append(f"(n={n},k={k}) oracle {got}, formula {formula}, expected {printed}")
    conclude(1, "uniform sun coefficients match the case formulas", failures)


def test_criterion_02_explicit_small_sun_coefficients():
    failures = []
    for spec, lam, expected in [
        ("sun(3;2,1,1)", Partition([4, 3]), -2),
        ("sun(3;5,1,1)", Partition([4, 3, 3]), -22),
    ]:
        f = p_to_e(csf_subsets(parse_graph_spec(spec).build()))
        got = f.terms.get(lam, Fraction(0))
        if got != expected:
            failures.append(f"[e_{list(lam)}] X[{spec}] = {got}, expected {expected}")
    conclude(2, "explicit small-sun coefficients reproduced", failures)


def test_criterion_03_three_ray_classification():
    cases = [
        ("sun(3;4,2,2)", True),
        ("sun(3;2,1,1)", False),
        ("sun(3;5,1,1)", False),
        ("sun(3;6,3,3)", False),
        ("sun(3;7,3,3)", False),
    ]
    failures = []
    for spec, expected in cases:
        rep = e_positivity(spec)
        if rep.positive != expected:
            failures.append(f"{spec}: positive={rep.positive}, expected {expected}")
    conclude(3, "three-ray sun e-positivity classification", failures)


def test_criterion_04_predicted_types_have_no_connected_partition():
    failures = []
    pairs = [(n, k) for k in range(1, 5) for n in range(3, 15) if n * (k + 1) <= 14]
    for n, k in pairs:
        lam = uniform_sun_missing_type(n, k)
        for body in ("cycle", "complete"):
            g = sun_graph(n, (k,) * n, body=body)
            if has_connected_partition(g, lam) is not None:
                failures.append(f"S({n};{k}) body={body}: type {list(lam)} realized")
    rays = (5, 3, 3, 1)
    lam = gcd_missing_type(rays)
    if lam != Partition([9, 7]):
        failures.append(f"gcd type for {rays} is {lam}, expected [9, 7]")
    else:
        for body in ("cycle", "complete"):
            g = sun_graph(4, rays, body=body)
            if has_connected_partition(g, lam) is not None:
                failures.append(f"S(4;{rays}) body={body}: type [9, 7] realized")
    conclude(4, "predicted missing partition types absent in both sun kinds", failures)


def test_criterion_05_matching_example():
    failures = []
    lacking, having = "sun(5;3,1,2,1,2)", "sun(5;3,2,2,1,1)"
    pairing = Partition([2] * 7)
    if sun_matching_criterion(lacking):
        failures.append(f"{lacking}: criterion claims a perfect matching")
    if has_connected_partition(sun_graph(5, (3, 1, 2, 1, 2)), pairing) is not None:
        failures.append(f"{lacking}: connected partition of type 2^7 exists")
    if not sun_matching_criterion(having):
        failures.append(f"{having}: criterion misses the perfect matching")
    if has_connected_partition(sun_graph(5, (3, 2, 2, 1, 1)), pairing) is None:
        failures.append(f"{having}: no connected partition of type 2^7")
    conclude(5, "perfect-matching example decided by criterion and search", failures)


def test_criterion_06_path_cycle_closed_forms():
    failures = []
    for d in range(2, 11):
        if csf_path_closed(d) != p_to_e(csf_subsets(path_graph(d))):
            failures.append(f"path closed form differs at d={d}")
        oracle = (
            p_to_e(csf_subsets(path_graph(2))) if d == 2 else p_to_e(csf_subsets(cycle_graph(d)))
        )
        if csf_cycle_closed(d) != oracle:
            failures.append(f"cycle closed form differs at d={d}")
    conclude(6, "path and cycle closed forms equal the subset oracle, d = 2..10", failures)


def test_criterion_07_identity_grids():
    grids = [
        "triple_deletion",
        "sun_spider_reduction",
        "dumbbell_recursion",
        "dumbbell_tadpole_expansion",
        "cdumbbell_recursion",
        "cdumbbell_lollipop_expansion",
        "chromatic_closed_forms",
    ]
    failures = []
    for name in grids:
        reports = run_grid(name, vertex_cap=14)
        if not reports:
            failures.append(f"{name}: empty grid")
        for rep in reports:
            if not rep.equal:
                failures.append(f"{name}{rep.params}: difference {rep.difference}")
    conclude(7, "all identity grids exact up to 14 vertices", failures)


def test_criterion_08_dumbbell_e_positivity():
    failures = []
    instances = positive_family_instances()
    if len(instances) < 100:
        failures.append(f"grid unexpectedly small: {len(instances)} instances")
    for spec, (f, engine) in instances:
        if engine != "closed":
            failures.append(f"{spec}: computed by {engine}, not the closed form")
            continue
        ok, witness = f.is_nonnegative()
        if not ok:
            failures.append(f"{spec}: negative coefficient at {witness}")
    conclude(8, "all in-guard dumbbell-family instances e-positive", failures)


def test_criterion_09_distinguishability():
    failures = []
    for family, cap in [("dumbbell", 11), ("cdumbbell", 10)]:
        rep = verify_distinguishability(family, cap)
        if not rep.equal:
            failures.append(f"{family} cap {cap}: collision {rep.params.get('collision')}")
        elif rep.params["instances"] < 2:
            failures.append(f"{family} cap {cap}: vacuous grid")
    seen = {}
    for m in range(3, 12):
        for n in range(m, 12):
            for l in range(-1, 9):
                if m + n + l > 11:
                    continue
                key = chromatic_poly_closed(f"dumbbell({m},{l},{n})").coeffs
                if key in seen:
                    failures.append(f"chromatic collision: {seen[key]} vs {(m, l, n)}")
                seen[key] = (m, l, n)
    if len(seen) < 2:
        failures.append("chromatic separation check is vacuous")
    conclude(9, "small dumbbells separated by CSF and chromatic polynomial", failures)


def test_criterion_10_cross_engine_properties():
    failures = []
    corpus = builder_corpus(max_edges=16)
    if len(corpus) < 50:
        failures.append(f"builder corpus unexpectedly small: {len(corpus)}")
    for g in corpus:
        subsets = csf_subsets(g)
        if csf_dc(g) != subsets:
            failures.append(f"dc != subsets on {g!r}")
        if len(g.edges) > 14:
            continue
        f = p_to_e(subsets)
        chi = chromatic_poly_dc(g)
        for n in range(0, 6):
            if f.evaluate_ones(n) != chi(n):
                failures.append(f"evaluate_ones({n}) != chi({n}) on {g!r}")
                break
    for d in range(1, 11):
        for lam in partitions_of(d):
            p = SymFunc.single(Basis.P, lam)
            if e_to_p(p_to_e(p)) != p:
                failures.append(f"p round trip fails at {list(lam)}")
            s = SymFunc.single(Basis.S, lam)
            if e_to_s(s_to_e(s)) != s:
                failures.append(f"s round trip fails at {list(lam)}")
    positives = [("sun(3;4,2,2)", compute_csf("sun(3;4,2,2)"))] + positive_family_instances()
    for spec, (f, _) in positives:
        ok, _ = f.is_nonnegative()
        if not ok:
            continue
        s_ok, witness = e_to_s(f).is_nonnegative()
        if not s_ok:
            failures.append(f"{spec}: e-positive but s-coefficient {witness} negative")
    conclude(10, "cross-engine, evaluation, round-trip and s-positivity checks", failures)
