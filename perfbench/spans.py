"""Per-layer spans, recorded by wrapping the program's public functions.

``Tracer.install`` replaces each traced function, in every ``chromsym``
module that binds it, by a wrapper that records a span: its duration and the
part of it covered by nested spans.  A layer's self time is the sum of its
spans' durations minus their children's.  Spans are kept as per-layer sums in
memory and read out when the run ends.  Nothing is recorded unless
``recording`` is set, so the benchmark's own checks stay out of the figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("partitions", "graphs", "csf", "symfunc", "positivity", "identities", "cli")

#: per-layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    ("partitions.calls", "count"),
    ("partitions.self_s", "s"),
    ("graphs.calls", "count"),
    ("graphs.self_s", "s"),
    ("csf.subsets.calls", "count"),
    ("csf.subsets.self_s", "s"),
    ("csf.subsets.leaves", "count"),
    ("csf.dc.calls", "count"),
    ("csf.dc.self_s", "s"),
    ("csf.chrompoly_dc.calls", "count"),
    ("csf.chrompoly_dc.self_s", "s"),
    ("csf.closed.calls", "count"),
    ("csf.closed.self_s", "s"),
    ("csf.closed.hit_ratio", "ratio"),
    ("symfunc.p_to_e.calls", "count"),
    ("symfunc.p_to_e.self_s", "s"),
    ("symfunc.e_to_s.calls", "count"),
    ("symfunc.e_to_s.cold_s", "s"),
    ("symfunc.e_to_s.warm_s", "s"),
    ("symfunc.e_to_p.cold_s", "s"),
    ("symfunc.e_to_p.warm_s", "s"),
    ("symfunc.s_to_e.self_s", "s"),
    ("positivity.scan.calls", "count"),
    ("positivity.scan.self_s", "s"),
    ("positivity.scan.missing_ratio", "ratio"),
    ("identities.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
)


def _public_functions(module):
    """Functions, cached or not, that the module defines under a public name."""
    return [
        fn
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and callable(fn)
        and not inspect.isclass(fn)
        and getattr(fn, "__module__", None) == module.__name__
    ]


class Tracer:
    """Span sums per layer.  ``end_operation`` closes the self times of one
    operation, and ``summary`` scales each operation's to the reference speed
    it ran at."""

    def __init__(self, clock=None):
        self.clock = clock  # its sampling pauses are left out of every span
        self.recording = False
        self.stack = []  # per open span: time covered by its children
        self.pending = defaultdict(float)
        self.operations = []  # per operation: layer -> raw self seconds
        self.calls = Counter()
        self.counts = Counter()  # subset leaves, scan types missing and tried
        self.degrees_seen = defaultdict(set)
        self._closed_cached = []
        self.closed_at_start = (0, 0)

    # --------------------------------------------------------------- wrapping

    def _wrap(self, layer, fn, after=None):
        """``layer`` is a name, or a callable of the call's arguments giving one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            name = layer(*args) if callable(layer) else layer
            self.stack.append(0.0)
            paused = self._paused()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start - (self._paused() - paused)
                children = self.stack.pop()
                self.pending[name] += duration - children
                self.calls[name] += 1
            if after is not None:
                after(args, result)
            if self.stack:  # the parent's covered time includes this hook
                self.stack[-1] += time.perf_counter() - start - (self._paused() - paused)
            return result

        return wrapper

    def _paused(self):
        return self.clock.paused_s if self.clock else 0.0

    def _degree_layer(self, base):
        def layer(f, *rest):
            seen = self.degrees_seen[base]
            temperature = "warm" if f.degree in seen else "cold"
            seen.add(f.degree)
            return f"{base}.{temperature}"

        return layer

    def install(self):
        """Wrap the traced functions wherever a ``chromsym`` module binds them."""
        mods = {name: importlib.import_module(f"chromsym.{name}") for name in MODULES}
        csf, symfunc = mods["csf"], mods["symfunc"]
        plain_partitions = mods["partitions"].partitions_of
        closed = [fn for fn in _public_functions(csf) if fn.__name__.endswith("_closed")]
        self._closed_cached = [fn for fn in closed if hasattr(fn, "cache_info")]

        def count_leaves(args, result):
            g = args[0]
            for comp in g.components():
                inside = set(comp)
                self.counts["subsets.leaves"] += 2 ** sum(1 for u, _ in g.edges if u in inside)

        def count_types(args, result):
            self.counts["scan.missing"] += len(result)
            self.counts["scan.tried"] += len(plain_partitions(args[0].n))

        wrappers = {}
        for module, layer in (("partitions", "partitions"), ("graphs", "graphs")):
            for fn in _public_functions(mods[module]):
                wrappers[fn] = self._wrap(layer, fn)
        for fn in closed:
            wrappers[fn] = self._wrap("csf.closed", fn)
        wrappers[csf.csf_subsets] = self._wrap("csf.subsets", csf.csf_subsets, count_leaves)
        wrappers[csf.csf_dc] = self._wrap("csf.dc", csf.csf_dc)
        wrappers[csf.chromatic_poly_dc] = self._wrap("csf.chrompoly_dc", csf.chromatic_poly_dc)
        wrappers[symfunc.p_to_e] = self._wrap("symfunc.p_to_e", symfunc.p_to_e)
        wrappers[symfunc.s_to_e] = self._wrap("symfunc.s_to_e", symfunc.s_to_e)
        for name in ("e_to_s", "e_to_p"):
            fn = getattr(symfunc, name)
            wrappers[fn] = self._wrap(self._degree_layer(f"symfunc.{name}"), fn)
        scan = mods["positivity"].missing_partition_scan
        wrappers[scan] = self._wrap("positivity.scan", scan, count_types)
        identities = mods["identities"]
        for fn in identities.VERIFIERS.values():
            wrappers[fn] = self._wrap("identities", fn)
        wrappers[mods["cli"].main] = self._wrap("cli", mods["cli"].main)

        import chromsym

        for module in (chromsym, *mods.values()):
            for name, value in list(vars(module).items()):
                if any(value is fn for fn in wrappers):
                    setattr(module, name, wrappers[value])
        for name, fn in identities.VERIFIERS.items():
            identities.VERIFIERS[name] = wrappers[fn]
        self.closed_at_start = self._closed_totals()

    def _closed_totals(self):
        hits = sum(fn.cache_info().hits for fn in self._closed_cached)
        misses = sum(fn.cache_info().misses for fn in self._closed_cached)
        return hits, misses

    # -------------------------------------------------------------- recording

    @contextmanager
    def record(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def end_operation(self):
        self.operations.append(dict(self.pending))
        self.pending.clear()

    def summary(self, factors=None) -> dict:
        """Sums over the operations, each operation's self times multiplied by
        its factor (reference over raw time), which ``metrics`` turns into
        the per-layer figures."""
        self_s = Counter()
        for op, factor in zip(self.operations, factors or [1.0] * len(self.operations)):
            for name, seconds in op.items():
                self_s[name] += seconds * factor
        hits, misses = self._closed_totals()
        start_hits, start_misses = self.closed_at_start
        counts = dict(self.counts)
        counts["closed.hits"] = hits - start_hits
        counts["closed.lookups"] = hits + misses - start_hits - start_misses
        return {"self_s": dict(self_s), "calls": dict(self.calls), "counts": counts}


def merge(summaries) -> dict:
    """Sum the ``summary`` dicts of several processes."""
    out = {"self_s": Counter(), "calls": Counter(), "counts": Counter()}
    for s in summaries:
        for key, total in out.items():
            total.update(s[key])
    return out


def metrics(summary, startup_s=0.0) -> dict:
    """The per-layer metrics of METRICS from a (merged) summary."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "cli.startup_s": startup_s,
        "csf.subsets.leaves": counts.get("subsets.leaves", 0),
        "csf.closed.hit_ratio": ratio(counts.get("closed.hits", 0), counts.get("closed.lookups", 0)),
        "positivity.scan.missing_ratio": ratio(counts.get("scan.missing", 0), counts.get("scan.tried", 0)),
        "symfunc.e_to_s.calls": calls.get("symfunc.e_to_s.cold", 0) + calls.get("symfunc.e_to_s.warm", 0),
    }
    for name, unit in METRICS:
        if name in values:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(layer, 0)
        elif kind == "self_s":
            values[name] = self_s.get(layer, 0.0)
        else:  # cold_s / warm_s
            values[name] = self_s.get(f"{layer}.{kind[:-2]}", 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
