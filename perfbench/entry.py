"""A fresh ``chromsym`` process that samples its own speed, for cli_calls and set-up.

    python3 perfbench/entry.py import           # start up and import chromsym
    python3 perfbench/entry.py cli ARGS...      # the chromsym command

The speed sampler (``refspeed.Clock``) starts before chromsym is imported.
With ``PERFBENCH_TRACE=1`` the span wrappers are installed around the
command as well.  The last line of standard error is ``PERFBENCH`` and a JSON
object: the reference-loop samples, the time spent sampling, the start-up
until chromsym was imported (from ``PERFBENCH_LAUNCH``, the launch time the
parent passes) and, when traced, the span sums.
"""

import os
import sys
import time

from refspeed import Clock

CLOCK = Clock()

if sys.argv[1] == "cli":
    import chromsym.cli
else:
    import chromsym  # noqa: F401

STARTUP_S = time.perf_counter() - float(os.environ["PERFBENCH_LAUNCH"])

import json  # noqa: E402


def main() -> int:
    status, summary = 0, None
    if sys.argv[1] == "cli" and os.environ.get("PERFBENCH_TRACE") == "1":
        from spans import Tracer

        tracer = Tracer(CLOCK)
        tracer.install()
        with tracer.record():
            status = chromsym.cli.main(sys.argv[2:])
        tracer.end_operation()
        summary = tracer.summary()
    elif sys.argv[1] == "cli":
        status = chromsym.cli.main(sys.argv[2:])
    CLOCK.close()
    report = {
        "loops": CLOCK.loops,
        "paused_s": CLOCK.paused_s,
        "startup_s": STARTUP_S,
        "trace": summary,
    }
    sys.stdout.flush()
    print("PERFBENCH " + json.dumps(report), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
