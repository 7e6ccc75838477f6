"""chromsym benchmark: one workload (or all four), timed at a reference speed.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify_csf --seed 1 --seconds 15 --trace 0

Workloads: verify_csf, verify_chromatic, positivity_session, cli_calls, or
``all``.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run.  The lines before it print every figure
scaled to the reference speed beside its raw wall-clock value.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from refspeed import NOMINAL_LOOP_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_csf", "verify_chromatic", "positivity_session", "cli_calls")
#: launches timed for setup_s; the median is reported
SETUP_PROBES = 9
#: every run ends within this many seconds of its start
RUN_LIMIT_S = 170.0


def end_to_end(latencies, setups) -> dict:
    """The end-to-end metrics from operation latencies and set-up times."""
    return {
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "latency_p90_s": {"value": statistics.quantiles(latencies, n=10)[8], "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def run_workload(name, seed, seconds, trace, env, deadline):
    """One run; returns (result dict, printable lines)."""
    import clicalls  # imports chromsym, so only once src is on sys.path

    setup_scaled, setup_raw = [], []
    if not trace:
        probe = ("cli", *workloads.CLI_SETUP_CALL) if name == "cli_calls" else ("import",)
        for _ in range(SETUP_PROBES):
            proc, s, r, report = clicalls.launch(probe, env, False, deadline)
            if proc.returncode != 0 or report is None:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
            setup_scaled.append(s)
            setup_raw.append(r)
    if name == "cli_calls":
        calls = workloads.operations(name, seed, seconds)
        result = clicalls.run_calls(calls, env, bool(trace), deadline)
    else:
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["scaled"]:
        raise RuntimeError(f"{name}: no operation succeeded: {result['failures'][:3]}")
    scaled = end_to_end(result["scaled"], setup_scaled or [0.0])
    raw = end_to_end(result["raw"], setup_raw or [0.0])
    loops = result["loops"]
    lines = [f"{name}: seed {seed}, {result['attempted']} operations, {len(result['failures'])} failed"]
    lines += [f"  failed: {f}" for f in result["failures"][:5]]
    median_loop_us = statistics.median(loops) * 1e6
    lines.append(f"  reference loop: median {median_loop_us:.1f} us (nominal {NOMINAL_LOOP_S * 1e6:.0f} us)")
    for key, metric in scaled.items():
        if trace and key in ("setup_s", "peak_rss_mb"):
            continue
        lines.append(f"  {key:16s} {metric['value']:12.6g} {metric['unit']:5s} (raw {raw[key]['value']:.6g})")
    out = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
    }
    if trace:
        if name == "cli_calls":
            merged = spans.merge(r["trace"] for r in result["reports"])
            startup = statistics.median(r["startup_s"] for r in result["reports"])
            out["metrics"] = spans.metrics(merged, startup)
        else:
            out["metrics"] = spans.metrics(result["trace"])
        lines += [f"  {k:32s} {m['value']:12.6g} {m['unit']}" for k, m in out["metrics"].items()]
    else:
        out["metrics"] = scaled
    return out, lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "chromsym" / "__init__.py").is_file():
        print(f"error: no chromsym sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":  # one process per workload, so peak RSS is per workload
        results = {}
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            *lines, last = out.strip().splitlines()
            print("\n".join(lines), flush=True)
            results[name] = json.loads(last)
        print(json.dumps(results))
        return 0
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # compile the byte code once, untimed, so that no timed start-up pays for it
    subprocess.run([sys.executable, "-c", "import chromsym.cli"], env=env, check=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace, env, deadline)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
