"""Timing at a fixed reference speed.

The machines this benchmark runs on share their CPUs, and their speed drifts
by tens of percent within seconds.  A ``Clock`` therefore samples the speed
throughout a run: every ``SAMPLE_PERIOD_S`` a timer signal interrupts
whatever is running and times a fixed pure-Python loop.  An operation's time
is its wall time minus those interruptions, scaled by ``NOMINAL_LOOP_S`` over
the median loop time of the samples taken while it ran: the time the
operation would have taken on a machine that runs the loop in exactly
``NOMINAL_LOOP_S``.  An operation that fewer than ``MIN_SAMPLES`` samples
interrupted takes, besides those, the ``MIN_SAMPLES`` samples just before it
and just after it.  The speed changes within a tenth of a second, so the
nearest samples track it best: on identity grids, medians over windows
widened by 0.25 s or more on either side repeated worse from run to run.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

#: the loop's time at the reference speed, seconds (a round figure at the low
#: end of its run medians, 250-340 us, on the shared 2-CPU VM running
#: Python 3.11 on which the benchmark was written)
NOMINAL_LOOP_S = 0.00025
#: seconds between two speed samples (about 2.5% of the run goes to sampling)
SAMPLE_PERIOD_S = 0.01
#: an operation with fewer samples inside it also takes this many samples
#: from just before it and from just after it
MIN_SAMPLES = 3

_KEYS = [tuple(sorted((i % 5 + 1, i % 3 + 1, 2), reverse=True)) for i in range(12)]
_LEFT = [Fraction(i, i + 7) for i in range(1, 40)]
_RIGHT = [Fraction(1, i) for i in range(1, 40)]


def reference_loop() -> float:
    """Run the fixed loop once; returns its wall time in seconds.

    Exact rational products summed into a dict under partition-like tuple
    keys: the inner loop of the program's basis changes and engines.  Of the
    loops tried (integer arithmetic alone, big-dict lookups, frozenset
    algebra, this one), it tracked the program's own speed most closely.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(40):
        key = _KEYS[i % 12]
        acc[key] = acc.get(key, 0) + _LEFT[i % 39] * _RIGHT[(i * 7) % 39]
    return time.perf_counter() - t0


def scale(raw_s: float, loops) -> float:
    """``raw_s`` at the reference speed, given the loop times measured with it
    (their median, so that a sample a context switch hit does not count)."""
    loops = sorted(loops)
    middle = (loops[(len(loops) - 1) // 2] + loops[len(loops) // 2]) / 2
    return raw_s * NOMINAL_LOOP_S / middle


class Clock:
    """Times callables while sampling the reference speed on a timer.

    ``run(fn)`` returns ``(result, raw_s)``, the wall time less the sampling
    inside it; ``scaled()`` gives every run's time at the reference speed,
    once the samples after the last one are in.  ``paused_s`` is the total
    time spent sampling so far.  ``close`` stops the timer.
    """

    def __init__(self):
        self.times, self.loops, self.windows = [], [], []
        self.paused_s = 0.0
        for _ in range(5):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.loops.append(reference_loop())
        self.times.append(t0)
        self.paused_s += time.perf_counter() - t0

    def run(self, fn, *args):
        paused = self.paused_s
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        raw = t1 - t0 - (self.paused_s - paused)
        self.windows.append((t0, t1, raw))
        return result, raw

    def scaled(self) -> list:
        out = []
        for t0, t1, raw in self.windows:
            lo = bisect.bisect_left(self.times, t0)
            hi = bisect.bisect_right(self.times, t1)
            if hi - lo < MIN_SAMPLES:
                lo, hi = max(0, lo - MIN_SAMPLES), hi + MIN_SAMPLES
            out.append(scale(raw, self.loops[lo:hi]))
        return out

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
