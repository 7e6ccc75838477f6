"""Command-line front end.

Subcommands compute chromatic symmetric functions and chromatic polynomials
of graph specs, run positivity checks and missing-partition scans, list
partitions, and drive the identity verifiers: a single instance, or a whole
grid checked instance by instance in this process.  Each ``_cmd_*`` function
returns ``(obj, text, failed)``: the ``--json`` object, the human-readable
lines, and whether the verdict is negative.  ``main`` alone prints one of
the two, byte-deterministic, and turns ``failed`` under ``--strict`` into
exit status 1; usage or domain errors exit with status 2, and so does a
reader that closes the output pipe early, with no traceback.

Every module but ``partitions`` is imported inside the commands that use
it, so ``partitions`` loads only ``cli`` and ``partitions``, ``csf`` and
``chrompoly`` load neither ``positivity`` nor ``identities``, and the parser
reads its one constant, ``DEFAULT_GRID_VERTEX_CAP``, from ``partitions``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .partitions import DEFAULT_GRID_VERTEX_CAP, partitions_of


def _cmd_csf(args) -> tuple:
    from .csf import compute_csf, csf_degree
    from .graphs import parse_graph_spec
    from .symfunc import Basis, _degree_guard, convert

    basis = Basis(args.basis)
    spec = parse_graph_spec(args.spec)
    if basis is not Basis.E:
        _degree_guard(csf_degree(spec))
    f, engine = compute_csf(spec)
    f = convert(f, basis)
    obj = {**f.to_json_obj(), "spec": str(spec), "engine": engine}
    return obj, f"X[{args.spec}] = {f}  ({engine})", False


def _cmd_chrompoly(args) -> tuple:
    from .csf import compute_chromatic

    poly, engine = compute_chromatic(args.spec)
    if args.at is not None:
        value = poly(args.at)
        return {"spec": args.spec, "engine": engine, "at": args.at, "value": value}, str(value), False
    obj = {"spec": args.spec, "engine": engine, "coeffs": poly.to_json_obj()}
    return obj, f"chi[{args.spec}] = {poly}  ({engine})", False


def _cmd_positivity(args) -> tuple:
    from .positivity import e_positivity, s_positivity

    check = e_positivity if args.basis == "e" else s_positivity
    report = check(args.spec)
    verdict = f"{args.basis}-positive" if report.positive else f"not {args.basis}-positive"
    line = f"{args.spec}: {verdict}  ({report.engine})"
    if report.witness is not None:
        lam, c = report.witness
        line += f"; witness [{','.join(map(str, lam))}] -> {c}"
    return report.to_json_obj(), line, not report.positive


def _cmd_scan(args) -> tuple:
    from .positivity import missing_partition_scan

    missing = missing_partition_scan(args.spec)
    text = "\n".join(map(str, missing)) or "none"
    return {"spec": args.spec, "missing": [list(lam) for lam in missing]}, text, bool(missing)


def _cmd_partitions(args) -> tuple:
    parts = partitions_of(args.n)
    return [list(lam) for lam in parts], "\n".join(map(str, parts)), False


def _verify_kwargs(name: str, text: str) -> dict:
    """Keyword arguments of ``VERIFIERS[name]`` parsed from its CLI text.

    Names, order and types come from the identity's first grid row,
    ``next(iter_grid(name))``.  A one-key row takes the whole text, since
    graph specs contain commas; otherwise each comma-separated piece is
    converted by the type of its key's value in that row.
    """
    from .identities import iter_grid

    row = next(iter_grid(name))
    if len(row) == 1:
        return dict.fromkeys(row, text)
    pieces = [piece.strip() for piece in text.split(",")]
    if len(pieces) != len(row):
        raise ValueError(f"expected {len(row)} comma-separated values ({','.join(row)})")
    kwargs = {}
    for (key, value), piece in zip(row.items(), pieces):
        try:
            kwargs[key] = type(value)(piece)
        except ValueError:
            raise ValueError(f"{key} must be {type(value).__name__}, got {piece!r}") from None
    return kwargs


def _report_line(obj: dict) -> str:
    status = "ok" if obj["equal"] else "FAIL"
    return f"{obj['name']} {json.dumps(obj['params'], separators=(',', ':'))}: {status}"


def _cmd_verify(args) -> tuple:
    from .identities import VERIFIERS, run_grid

    name = args.name.replace("-", "_")
    if name not in VERIFIERS:
        known = ", ".join(sorted(VERIFIERS))
        raise ValueError(f"unknown identity {args.name!r}; known: {known}")
    if args.grid is not None and args.params is not None:
        raise ValueError("verify takes PARAMS or --grid CAP, not both")
    if args.grid is not None:
        results = [r.to_json_obj() for r in run_grid(name, args.grid)]
        all_equal = all(r["equal"] for r in results)
        obj = {
            "identity": name,
            "grid_cap": args.grid,
            "count": len(results),
            "all_equal": all_equal,
            "reports": results,
        }
        lines = [_report_line(r) for r in results]
        lines.append(f"{name}: {len(results)} instances, {'all equal' if all_equal else 'FAILURES'}")
        return obj, "\n".join(lines), not all_equal
    if args.params is None:
        raise ValueError("verify needs PARAMS, or --grid CAP for a grid run")
    kwargs = _verify_kwargs(name, args.params)
    report = VERIFIERS[name](**kwargs)
    obj = report.to_json_obj()
    text = _report_line(obj)
    if not report.equal and report.difference is not None:
        text += f"\ndifference: {report.difference}"
    return obj, text, not report.equal


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromsym",
        description="Exact chromatic symmetric functions of sun and dumbbell graph families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("csf", parents=[common], help="chromatic symmetric function of a graph spec")
    p.add_argument("spec")
    p.add_argument("--basis", choices=("p", "e", "s"), default="e")
    p.set_defaults(func=_cmd_csf)

    p = sub.add_parser("chrompoly", parents=[common], help="chromatic polynomial of a graph spec")
    p.add_argument("spec")
    p.add_argument("--at", type=int, default=None, metavar="N", help="evaluate at x = N")
    p.set_defaults(func=_cmd_chrompoly)

    p = sub.add_parser("positivity", parents=[common], help="e- or s-positivity verdict with witness")
    p.add_argument("spec")
    p.add_argument("--basis", choices=("e", "s"), default="e")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the function is not positive")
    p.set_defaults(func=_cmd_positivity)

    p = sub.add_parser("scan", parents=[common], help="partition types with no connected partition")
    p.add_argument("spec")
    p.add_argument("--strict", action="store_true", help="exit 1 when types are missing")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("partitions", parents=[common], help="list the partitions of N, largest part first")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("verify", parents=[common], help="check one stated identity, or its whole grid")
    p.add_argument("name", help="identity name (hyphens or underscores)")
    p.add_argument("params", nargs="?", default=None,
                   help="instance parameters, e.g. 4,1,3 or a graph spec")
    p.add_argument("--grid", type=int, default=None, const=DEFAULT_GRID_VERTEX_CAP,
                   nargs="?", metavar="CAP",
                   help="run the whole grid up to CAP vertices (default %(const)s)")
    p.add_argument("--strict", action="store_true", help="exit 1 when a check fails")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        obj, text, failed = args.func(args)
        print(json.dumps(obj, separators=(", ", ": ")) if args.json else text)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left early: nothing more to say, and nowhere to say it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush cannot raise again
        return 2
    # only the commands with --strict can report a failed verdict
    return 1 if failed and args.strict else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
