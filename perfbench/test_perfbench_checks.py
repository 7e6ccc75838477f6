"""The benchmark's own tests: every output check rejects a corrupted result.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import json
import time
from fractions import Fraction
from types import SimpleNamespace

from chromsym import (
    Partition,
    chromatic_poly_dc,
    compute_csf,
    e_to_p,
    e_to_s,
    missing_partition_scan,
    parse_graph_spec,
    sun_graph,
    verify_dumbbell_recursion,
)

import checks
import clicalls
import spans
import workloads

SUN = sun_graph(3, (1, 1, 1))


def sun_csf():
    return compute_csf("sun(3;1,1,1)")[0]


def corrupt(f, lam, delta=1):
    """A copy of ``f`` with one coefficient changed."""
    terms = dict(f.terms)
    terms[lam] = terms.get(lam, Fraction(0)) + delta
    return type(f)(f.basis, f.degree, terms)


def test_colouring_counts():
    assert checks.count_colourings(3, [(0, 1), (1, 2), (0, 2)]) == 6
    assert checks.count_colourings(3, [(0, 1), (1, 2)]) == 12
    assert checks.count_colourings(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]) == 0
    assert checks.count_colourings(2, []) == 9


def test_wrong_csf_coefficient_is_rejected():
    f = sun_csf()
    assert checks.csf_problems(f, SUN) == []
    assert checks.csf_problems(corrupt(f, Partition([3, 3])), SUN)


def test_wrong_polynomial_coefficient_is_rejected():
    coeffs = list(chromatic_poly_dc(SUN).coeffs)
    assert checks.poly_problems(coeffs, SUN) == []
    for i in range(len(coeffs)):
        bad = list(coeffs)
        bad[i] += 1
        assert checks.poly_problems(bad, SUN), i


def test_wrong_schur_or_power_coefficient_is_rejected():
    f = sun_csf()
    for converted in (e_to_s(f), e_to_p(f)):
        assert checks.round_trip_problems(converted, f) == []
        assert checks.csf_problems(converted, SUN) == []
        lam = converted.support()[0]
        assert checks.round_trip_problems(corrupt(converted, lam), f)


def test_witness_must_be_negative_and_match():
    f = sun_csf()
    ok, witness = f.is_nonnegative()
    assert checks.witness_problems(ok, witness, f) == []
    lam, c = witness
    assert checks.witness_problems(False, (lam, -c), f)
    assert checks.witness_problems(False, (lam, c - 1), f)
    assert checks.witness_problems(True, witness, f)
    assert checks.witness_problems(False, None, f)


def test_dropped_missing_type_is_rejected():
    missing = missing_partition_scan(SUN)
    expected = checks.expected_missing_types("sun", (3, (1, 1, 1)))
    assert Partition([3, 3]) in expected
    assert checks.scan_problems(missing, SUN, False, expected) == []
    dropped = [lam for lam in missing if lam != Partition([3, 3])]
    assert checks.scan_problems(dropped, SUN, False, expected)
    assert checks.scan_problems(missing, SUN, True, expected)


def test_flipped_equal_is_rejected():
    report = verify_dumbbell_recursion(4, 1, 3)
    assert checks.report_problems(report.equal) == []
    assert checks.report_problems(not report.equal)


def test_cli_output_with_a_wrong_coefficient_is_rejected():
    spec = "dumbbell(3,0,3)"
    coeffs = list(chromatic_poly_dc(parse_graph_spec(spec).build()).coeffs)

    def proc(cs):
        return SimpleNamespace(returncode=0, stdout=json.dumps({"coeffs": cs}), stderr="")

    assert clicalls.problems(("chrompoly", spec), spec, proc(coeffs)) == []
    coeffs[1] += 1
    assert clicalls.problems(("chrompoly", spec), spec, proc(coeffs))
    failed = SimpleNamespace(returncode=2, stdout="", stderr="error: bad spec")
    assert clicalls.problems(("chrompoly", spec), spec, failed)


def test_rounds_have_equal_make_up_and_no_repeats():
    items = [(g, size, (g, size)) for g in "ab" for size in range(7)]
    rounds = workloads.balanced_rounds(items, 3)
    assert [len(r) for r in rounds] == [4, 4, 4]
    for r in rounds:
        assert sorted(g for _, (g, _) in r) == ["a", "a", "b", "b"]
    flat = [p for r in rounds for _, p in r]
    assert len(set(flat)) == len(flat)


def test_operations_are_seeded_and_distinct():
    def specs(seed):
        return [str(spec) for spec, _ in workloads.operations("positivity_session", seed, 60)]

    one = specs(1)
    assert one == specs(1)
    assert len(set(one)) == len(one)
    assert sorted(one) == sorted(specs(2))


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    child = tracer._wrap("child", lambda: time.sleep(0.02))

    def parent_body():
        time.sleep(0.01)
        child()

    parent = tracer._wrap("parent", parent_body)
    with tracer.record():
        t0 = time.perf_counter()
        parent()
        total = time.perf_counter() - t0
    tracer.end_operation()
    self_s = tracer.summary([2.0])["self_s"]
    assert tracer.calls == {"parent": 1, "child": 1}
    assert self_s["parent"] >= 0.02 and self_s["child"] >= 0.04
    assert abs(self_s["parent"] + self_s["child"] - 2 * total) < 0.002
