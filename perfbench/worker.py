"""One run of an in-process workload, in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Runs the operations of
one workload, each timed at the reference speed and checked afterwards, and
prints one JSON line: the latencies, the failures and, when traced, the
per-layer span sums.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from chromsym import csf, graphs, identities, positivity, symfunc

import checks
import workloads
from refspeed import Clock
from spans import Tracer


def verify_csf(item):
    name, kw, _ = item
    return identities.VERIFIERS[name](**kw)


def verify_csf_problems(item, report, record):
    name, _, g = item
    out = checks.report_problems(report.equal)
    if name in workloads.FULL_CSF_VERIFIERS:
        out += checks.csf_problems(report.lhs, g)
    return out


def verify_chromatic(item):
    return identities.VERIFIERS["chromatic_closed_forms"](target=item[0])


def verify_chromatic_problems(item, report, record):
    return checks.report_problems(report.equal) + checks.poly_problems(report.lhs.coeffs, item[1])


def positivity_session(item):
    """CSF, e-verdict, power-sum and Schur expansions, s-verdict, missing types."""
    text = str(item[0])  # the spec as a user types it
    f, _ = csf.compute_csf(text)
    power = symfunc.e_to_p(f)
    schur = symfunc.e_to_s(f)
    missing = positivity.missing_partition_scan(graphs.parse_graph_spec(text).build())
    return f, f.is_nonnegative(), power, schur, schur.is_nonnegative(), missing


def positivity_problems(item, result, record):
    spec, g = item
    f, (e_ok, e_witness), power, schur, (s_ok, s_witness), missing = result
    out = checks.csf_problems(f, g)
    out += checks.round_trip_problems(power, f)
    with record():  # s_to_e runs only here; traced for symfunc.s_to_e.self_s
        out += checks.round_trip_problems(schur, f)
    out += checks.witness_problems(e_ok, e_witness, f)
    out += checks.witness_problems(s_ok, s_witness, schur)
    expected = checks.expected_missing_types(spec.family, spec.args)
    return out + checks.scan_problems(missing, g, e_ok, expected)


OPERATIONS = {
    "verify_csf": (verify_csf, verify_csf_problems),
    "verify_chromatic": (verify_chromatic, verify_chromatic_problems),
    "positivity_session": (positivity_session, positivity_problems),
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(OPERATIONS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    items = workloads.operations(args.workload, args.seed, args.seconds)
    op, problems_of = OPERATIONS[args.workload]
    clock = Clock()
    tracer = Tracer(clock) if args.trace else None
    if tracer:
        tracer.install()
    record = tracer.record if tracer else nullcontext
    passed, failures, wrong = [], [], 0
    for item in items:
        try:
            with record():
                result, _ = clock.run(op, item)
        except Exception as exc:  # an operation that raises counts as failed
            clock.run(lambda: None)  # keeps one timing per operation
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = problems_of(item, result, record)
            wrong += bool(problems)
        if tracer:
            tracer.end_operation()
        if problems:
            failures.append(f"{item[:2]}: {'; '.join(problems)}")
        passed.append(not problems)
    scaled = clock.scaled()
    clock.close()
    raw = [w[2] for w in clock.windows]
    json.dump(
        {
            "attempted": len(items),
            "failures": failures,
            "wrong": wrong,
            "scaled": [s for s, ok in zip(scaled, passed) if ok],
            "raw": [r for r, ok in zip(raw, passed) if ok],
            "loops": clock.loops,
            "trace": tracer.summary([s / r for s, r in zip(scaled, raw)]) if tracer else None,
        },
        sys.stdout,
    )
    print()


if __name__ == "__main__":
    main()
