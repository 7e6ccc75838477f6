"""Inputs of the four workloads, built from a seed.

Every workload draws from a fixed corpus, cut into rounds of equal make-up
(``balanced_rounds``).  A run executes whole rounds, and no input repeats
within a run.  The seed orders the inputs of equal size inside each round
(``operations``).
"""

from __future__ import annotations

import random
from itertools import product

#: identity grids of verify_csf and the vertex cap of each; together 234
#: instances, a mix in which the subset expansion, deletion-contraction and
#: p -> e all take a visible share
VERIFY_CSF_GRIDS = {
    "cdumbbell_recursion": 10,
    "dumbbell_recursion": 12,
    "sun_spider_reduction": 14,
    "small_sun_coefficient": 14,
    "sun_coefficient": 14,
    "triple_deletion": 14,
}
#: the verifiers whose left side is the full CSF of one graph
FULL_CSF_VERIFIERS = ("cdumbbell_recursion", "dumbbell_recursion", "sun_spider_reduction", "triple_deletion")
#: cap 12 would add cdumbbell(3,0,9), one instance of 5 s
VERIFY_CHROMATIC_CAP = 11

#: families of positivity_session, its vertex counts, and graphs per (family, |V|)
POSITIVITY_FAMILIES = ("sun", "csun", "spider", "tadpole", "lollipop", "dumbbell", "cdumbbell", "sdumbbell")
POSITIVITY_VERTICES = range(10, 15)
POSITIVITY_PER_STRATUM = 3
#: seed of the fixed positivity sample (the run seed only orders it)
POSITIVITY_SAMPLE_SEED = 2405


def balanced_rounds(items, n_rounds: int) -> list:
    """Deal ``(group, size, payload)`` items into ``n_rounds`` rounds of equal make-up.

    Inside each group the items are sorted by size and cut into strata of
    ``n_rounds`` neighbours; round ``i`` takes the ``i``-th item of every
    stratum, so each round holds the same number of items of every group and
    of every size band.  The smallest ``len(group) % n_rounds`` items of a
    group are left out, so that all rounds have the same length.  Rounds hold
    ``(size, payload)`` pairs.
    """
    groups: dict = {}
    for group, size, payload in items:
        groups.setdefault(group, []).append((size, payload))
    rounds = [[] for _ in range(n_rounds)]
    for group in sorted(groups):
        members = sorted(groups[group], key=lambda m: m[0])
        members = members[len(members) % n_rounds:]
        for i, member in enumerate(members):
            rounds[i % n_rounds].append(member)
    return rounds


def _size(g):
    return (len(g.edges), g.n)


def verify_csf_items():
    """One item per instance: (grid, kwargs, the graph whose CSF it computes)."""
    from chromsym.graphs import dumbbell_graph, parse_graph_spec, sun_graph
    from chromsym.identities import iter_grid

    def graph(name, kw):
        if name == "dumbbell_recursion":
            return dumbbell_graph(kw["m"], kw["l"], kw["n"])
        if name == "cdumbbell_recursion":
            return dumbbell_graph(kw["m"], kw["l"], kw["n"], kind="complete")
        if name == "sun_spider_reduction":
            return sun_graph(3, (kw["a"], kw["b"], kw["b"]))
        if name == "small_sun_coefficient":
            return sun_graph(3, (kw["a"], kw["b"], kw["c"]))
        if name == "sun_coefficient":
            return sun_graph(kw["n"], (kw["k"],) * kw["n"])
        return parse_graph_spec(kw["target"]).build()

    for name, cap in VERIFY_CSF_GRIDS.items():
        for kw in iter_grid(name, cap):
            g = graph(name, kw)
            yield name, _size(g), (name, kw, g)


def verify_chromatic_items():
    """One item per chromatic_closed_forms instance: (spec, graph)."""
    from chromsym import parse_graph_spec
    from chromsym.identities import iter_grid

    for kw in iter_grid("chromatic_closed_forms", VERIFY_CHROMATIC_CAP):
        spec = parse_graph_spec(kw["target"])
        g = spec.build()
        yield spec.family, _size(g), (str(spec), g)


def _compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _family_specs(family, v):
    """Every spec of the family on v vertices (bodies of at most 6 vertices for
    suns, three legs for spiders, m <= n for the symmetric dumbbells)."""
    if family in ("sun", "csun"):
        for n in range(3, 7):
            for rays in _compositions(v - n, n):
                yield f"{family}({n};{','.join(map(str, rays))})"
    elif family == "spider":
        for a in range(1, v):
            for b in range(1, a + 1):
                c = v - 1 - a - b
                if 1 <= c <= b:
                    yield f"spider({a},{b},{c})"
    elif family in ("tadpole", "lollipop"):
        for m in range(3, v):
            yield f"{family}({m},{v - m})"
    else:
        for m in range(3, v + 1):
            for n in range(3 if family == "sdumbbell" else m, v + 1):
                l = v - m - n
                if l >= -1:
                    yield f"{family}({m},{l},{n})"


def positivity_items():
    """A fixed sample of POSITIVITY_PER_STRATUM graphs per (family, |V|), plus
    every sun and complete sun with equal rays in range, on which the sun
    obstruction formulas are checked: (spec, graph)."""
    from chromsym import parse_graph_spec

    uniform = [
        f"{body}({n};{','.join([str(k)] * n)})"
        for body, n, k in product(("sun", "csun"), range(3, 7), range(1, 4))
        if n * (k + 1) in POSITIVITY_VERTICES
    ]
    chosen = [("uniform", text) for text in uniform]
    rng = random.Random(POSITIVITY_SAMPLE_SEED)
    for family, v in product(POSITIVITY_FAMILIES, POSITIVITY_VERTICES):
        pool = sorted(set(_family_specs(family, v)) - set(uniform))
        chosen += [(family, text) for text in rng.sample(pool, POSITIVITY_PER_STRATUM)]
    for group, text in chosen:
        spec = parse_graph_spec(text)
        g = spec.build()
        yield group, (g.n, len(g.edges)), (spec, g)


#: chromsym invocations of cli_calls, each with the spec of the graph its
#: output is checked against (None: only the verifier's verdict is checked).
#: ``csf --basis s`` stops at 15 vertices: at 16 the cold e -> s build alone
#: takes 5-11 s, more than a third of a run.
CLI_CALLS = (
    (("csf", "sun(3;3,3,3)", "--basis", "s"), "sun(3;3,3,3)"),
    (("csf", "dumbbell(4,1,8)", "--basis", "s"), "dumbbell(4,1,8)"),
    (("csf", "sun(4;3,2,3,2)", "--basis", "s"), "sun(4;3,2,3,2)"),
    (("csf", "cdumbbell(5,3,7)", "--basis", "s"), "cdumbbell(5,3,7)"),
    (("csf", "spider(4,4,3)", "--basis", "p"), "spider(4,4,3)"),
    (("csf", "tadpole(6,7)", "--basis", "p"), "tadpole(6,7)"),
    (("csf", "csun(4;3,2,3,2)", "--basis", "p"), "csun(4;3,2,3,2)"),
    (("csf", "sdumbbell(5,4,6)", "--basis", "p"), "sdumbbell(5,4,6)"),
    (("csf", "dumbbell(5,6,5)", "--basis", "p"), "dumbbell(5,6,5)"),
    (("positivity", "sun(3;4,4,3)", "--basis", "s"), "sun(3;4,4,3)"),
    (("scan", "sun(3;4,4,3)"), "sun(3;4,4,3)"),
    (("scan", "sun(4;2,2,2,2)"), "sun(4;2,2,2,2)"),
    (("chrompoly", "line(cdumbbell(4,0,4))"), "line(cdumbbell(4,0,4))"),
    (("verify", "cdumbbell-recursion", "4,2,6"), "cdumbbell(4,2,6)"),
    (("verify", "dumbbell-recursion", "4,3,7"), "dumbbell(4,3,7)"),
    (("verify", "chromatic-closed-forms", "cdumbbell(3,0,8)"), "cdumbbell(3,0,8)"),
    (("verify", "small-sun-coefficient", "4,3,3"), None),
    (("verify", "triple-deletion", "cdumbbell(4,0,4)"), "cdumbbell(4,0,4)"),
)
#: the call that does no work, timed for cli_calls' setup_s
CLI_SETUP_CALL = ("partitions", "1")


def cli_items():
    for args, spec in CLI_CALLS:
        yield args[0], (), (args + ("--json",), spec)


#: workload -> (items, rounds in the corpus, reference seconds of one round)
WORKLOADS = {
    "verify_csf": (verify_csf_items, 3, 4.5),
    "verify_chromatic": (verify_chromatic_items, 3, 3.0),
    "positivity_session": (positivity_items, 3, 5.0),
    "cli_calls": (cli_items, 1, 15.0),
}


def operations(workload: str, seed: int, seconds: float) -> list:
    """The inputs of one run: whole rounds worth about ``seconds`` at the
    reference speed (at least one, at most the corpus).

    Each round runs from its smallest input to its largest, and the seed
    orders the inputs of equal size.  Every run thus meets the same sequence
    of sizes: what the program's caches and the allocator hold when a heavy
    operation starts, and which operation builds a per-degree table, repeat
    from run to run, while the inputs still differ with the seed.
    """
    items, n_rounds, round_seconds = WORKLOADS[workload]
    rounds = balanced_rounds(items(), n_rounds)
    take = max(1, min(n_rounds, round(seconds / round_seconds)))
    rng = random.Random(seed)
    ops = []
    for rnd in rounds[:take]:
        rng.shuffle(rnd)
        rnd.sort(key=lambda member: member[0])  # stable: equal sizes stay shuffled
        ops += [payload for _, payload in rnd]
    return ops
