"""A/B pairs of benchmark runs: two revisions, one workload, run in alternation.

Usage, from the repository root:

    python3 tools/abpairs.py REV_A REV_B --workload positivity_session --seeds 1-10
    python3 tools/abpairs.py --same REV --workload cli_calls --seeds 1-10

``--workload`` takes one of ``BENCHMARK.json``'s workload names; any other
name, ``all`` included, exits 2 before anything is exported.  Each revision
is exported with ``git archive`` into a temporary directory
(``--same REV`` exports two copies of one revision, an A/A run that measures
the noise floor).  For each seed, ``perfbench/run.py --trace 0`` runs on the
two exports in turn, A first for the first seed and the order flipped with
each seed after it, so neither side always runs second.

Prints one JSON object.  Per end-to-end metric of ``BENCHMARK.json``: each
pair's values (A, B), each side's median and quartiles, B's median change
over A's, the pairs B wins and ties (the direction read from the metric's
``better``), and an exact two-sided sign-test p-value over the pairs that
are not tied.  Against the metric's ``bound``: whether B's median is worse
than A's by at most the bound (``within_bound``), and A's quartile spread,
(q3 - q1) / median, with whether it exceeds the bound (``unresolved``: the
pairs cannot tell a move of that size from noise).  ``gain``: whether B
wins at least 9/10 of the pairs (a tie counts for neither side) and its
median is better than A's by more than A's quartile spread, the rule a
speed claim must meet.  Per side: the
operations attempted and failed, and the runs whose outputs were not all
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    """``"1-10"`` -> 1..10; ``"3,5,9"`` -> those seeds.  A range that names
    no seed, such as ``"5-3"``, is refused, so argparse exits 2 before any
    revision is exported."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    (ties left out): twice the smaller binomial(n, 1/2) tail, at most 1."""
    n = wins + losses
    tail = sum(comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list, better: str, bound: float) -> dict:
    """The statistics of one metric over (A, B) pairs; B wins a pair when it
    is better in the direction ``better`` ("higher" or "lower").  B's median
    is within ``bound`` when it is worse than A's by at most that fraction of
    A's, and the pairs are unresolved when A's quartile spread over its
    median exceeds ``bound``.  B shows a gain when it wins at least 9/10 of
    the pairs, ties counting for neither side, and its median is better
    than A's by more than A's quartile spread."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    ties = sum(a == b for a, b in pairs)
    a, b = summary([a for a, _ in pairs]), summary([b for _, b in pairs])
    change = b["median"] / a["median"] - 1 if a["median"] else None
    spread = (a["q3"] - a["q1"]) / a["median"] if a["median"] else None
    return {
        "pairs": [list(p) for p in pairs],
        "a": a,
        "b": b,
        "change": change,
        "wins_b": wins,
        "ties": ties,
        "sign_test_p": sign_test_p(wins, len(pairs) - wins - ties),
        "within_bound": None if change is None else sign * change >= -bound,
        "a_spread": spread,
        "unresolved": None if spread is None else spread > bound,
        "gain": None if change is None else 10 * wins >= 9 * len(pairs) and sign * change > spread,
    }


def export(rev: str, where: Path) -> Path:
    """The files of ``rev`` in the new directory ``where``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    where.mkdir()
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)
    return where


def run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its last line, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py puts its own src first
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{tree.name} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("revs", nargs="*", metavar="REV", help="REV_A REV_B")
    parser.add_argument("--same", metavar="REV", help="run two copies of REV (an A/A run)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    revs = [args.same] * 2 if args.same else args.revs
    if len(revs) != 2 or (args.same and args.revs):
        parser.error("give REV_A REV_B, or --same REV")
    commits = [subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{r}^{{commit}}"],
                              capture_output=True, text=True, check=True).stdout.strip() for r in revs]
    results = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(prefix="abpairs-") as tmp:
        trees = {side: export(c, Path(tmp) / side) for side, c in zip("ab", commits)}
        for i, seed in enumerate(args.seeds):
            for side in ("ab" if i % 2 == 0 else "ba"):
                results[side].append(run(trees[side], args.workload, seed, bench["run_seconds"]))
                print(f"seed {seed} {side} done", file=sys.stderr, flush=True)
    metrics = {
        m["name"]: compare([(a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"])
                            for a, b in zip(results["a"], results["b"])], m["better"], m["bound"])
        for m in bench["end_to_end"]
    }
    sides = {
        side: {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "incorrect_runs": sum(not r["correct"] for r in runs),
        }
        for side, runs in results.items()
    }
    print(json.dumps({"a": commits[0], "b": commits[1], "workload": args.workload, "seeds": args.seeds,
                      "seconds": bench["run_seconds"], "metrics": metrics, "sides": sides}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
