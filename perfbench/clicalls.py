"""Fresh ``chromsym`` processes: the cli_calls workload and the set-up probes.

Each process is started through ``entry.py``, which samples its own speed and
reports it, so that the call's time is scaled by the speed of the CPU it ran
on.  This process launches one call at a time, waits for it, and checks the
call's ``--json`` output itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from chromsym import Partition, SymFunc, compute_csf, parse_graph_spec

import checks
from refspeed import scale

ENTRY = Path(__file__).resolve().parent / "entry.py"
REPORT_PREFIX = "PERFBENCH "


def launch(args, env, trace: bool, deadline: float):
    """Run ``entry.py ARGS`` to its end: (process, scaled_s, raw_s, report).

    ``raw_s`` is the wall time from launch to exit less the child's own
    sampling; ``report`` is the JSON the child printed last on stderr, or
    None if it printed none.
    """
    launch_env = dict(env, PERFBENCH_TRACE=str(int(trace)), PERFBENCH_LAUNCH=repr(time.perf_counter()))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ENTRY), *args], env=launch_env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    wall = time.perf_counter() - t0
    lines = proc.stderr.strip().splitlines()
    if not lines or not lines[-1].startswith(REPORT_PREFIX):
        return proc, wall, wall, None
    report = json.loads(lines[-1][len(REPORT_PREFIX):])
    raw = wall - report["paused_s"]
    return proc, scale(raw, report["loops"]), raw, report


def problems(args, spec, proc) -> list:
    """Check one call's exit status and JSON output."""
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    obj = json.loads(proc.stdout)
    g = parse_graph_spec(spec).build() if spec else None
    sub = args[0]
    if sub == "csf":
        f = SymFunc.from_json_obj(obj)
        return checks.csf_problems(f, g) + checks.round_trip_problems(f, compute_csf(spec)[0])
    if sub == "positivity":
        w = obj["witness"]
        witness = None if w is None else (Partition(w["partition"]), Fraction(int(w["num"]), int(w["den"])))
        return checks.witness_problems(obj["positive"], witness, None)
    if sub == "scan":
        e_positive = compute_csf(spec)[0].is_nonnegative()[0]
        parsed = parse_graph_spec(spec)
        expected = checks.expected_missing_types(parsed.family, parsed.args)
        return checks.scan_problems(obj["missing"], g, e_positive, expected)
    if sub == "chrompoly":
        return checks.poly_problems(obj["coeffs"], g)
    out = checks.report_problems(obj["equal"])
    if g is not None:
        lhs = obj["lhs"]
        if isinstance(lhs, list):
            out += checks.poly_problems(lhs, g)
        else:
            out += checks.csf_problems(SymFunc.from_json_obj(lhs), g)
    return out


def run_calls(calls, env, trace: bool, deadline: float) -> dict:
    """Run the calls in order; the result has the shape worker.py prints."""
    scaled, raw, failures, wrong, loops, reports = [], [], [], 0, [], []
    for args, spec in calls:
        proc, call_scaled, call_raw, report = launch(("cli", *args), env, trace, deadline)
        found = problems(args, spec, proc)
        if found or report is None:
            wrong += proc.returncode == 0
            failures.append(f"{' '.join(args)}: {'; '.join(found) or 'no speed report'}")
            continue
        loops += report["loops"]
        if trace:
            factor = call_scaled / call_raw
            report["trace"]["self_s"] = {k: v * factor for k, v in report["trace"]["self_s"].items()}
            report["startup_s"] *= factor
            reports.append(report)
        scaled.append(call_scaled)
        raw.append(call_raw)
    return {
        "attempted": len(calls),
        "failures": failures,
        "wrong": wrong,
        "scaled": scaled,
        "raw": raw,
        "loops": loops,
        "reports": reports,
    }
