"""No input crashes the CLI: small grammar specs, valid and not, through ``cli.main``.

Hypothesis draws a spec from the grammar (every family, with sizes around
each rule's bounds, ``line`` and ``union`` nested a few levels, explicit
edge lists with repeated or out-of-range ends) or a short string of grammar
characters, and runs it through every subcommand, with and without
``--json``.  Each call must return 0, 1 or 2 with no exception escaping.
The draws are derandomized and keep no example database, so a run repeats
exactly.
"""

import contextlib
import io
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chromsym.cli import main
from chromsym.identities import VERIFIERS

#: mostly sizes every rule takes, 3 and 4, with the bounds' edges around them
sizes = st.sampled_from([3, 4, 1, 2, 3, 0, -1])
#: family -> argument count, for the families whose arguments are one int list
FAMILIES = {
    "path": 1, "cycle": 1, "complete": 1, "tadpole": 2, "lollipop": 2,
    "dumbbell": 3, "cdumbbell": 3, "sdumbbell": 3,
}


def _ints(values):
    return ",".join(map(str, values))


def _family(name, count):
    return st.builds(lambda xs: f"{name}({_ints(xs)})", st.lists(sizes, min_size=count, max_size=count))


simple_specs = st.one_of(
    *(_family(name, count) for name, count in FAMILIES.items()),
    st.builds(lambda f, xs: f"{f}({_ints(xs)})", st.sampled_from(sorted(FAMILIES)), st.lists(sizes, max_size=4)),
    st.builds(lambda xs: f"spider({_ints(xs)})", st.lists(sizes, max_size=4)),
    st.builds(lambda f, n, rays: f"{f}({n};{_ints(rays)})", st.sampled_from(["sun", "csun"]), sizes, st.lists(sizes, max_size=4)),
    st.builds(
        lambda d, pairs: f"edges[{d}:{','.join(f'({u},{v})' for u, v in pairs)}]",
        st.integers(0, 5), st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), max_size=4),
    ),
)
specs = st.recursive(
    simple_specs,
    lambda inner: st.one_of(
        st.builds(lambda a: f"line({a})", inner),
        st.builds(lambda a, b: f"union({a},{b})", inner, inner),
    ),
    max_leaves=2,
)
texts = st.one_of(specs, specs, specs, st.text(alphabet="linepathsuc(),;[]:-0123456789 ", max_size=16))

commands = st.one_of(
    st.builds(lambda s, b: ["csf", s, "--basis", b], texts, st.sampled_from("pes")),
    st.builds(lambda s, at: ["chrompoly", s] + ([] if at is None else ["--at", str(at)]), texts, st.none() | sizes),
    st.builds(lambda s, b: ["positivity", s, "--basis", b, "--strict"], texts, st.sampled_from("es")),
    st.builds(lambda s: ["scan", s, "--strict"], texts),
    st.builds(lambda n: ["partitions", str(n)], sizes),
    st.builds(lambda name, s: ["verify", name, s, "--strict"], st.sampled_from(sorted(VERIFIERS) + ["no-such"]), texts),
    st.builds(lambda name, xs: ["verify", name, _ints(xs)], st.sampled_from(sorted(VERIFIERS)), st.lists(sizes, min_size=2, max_size=3)),
    st.builds(lambda name, cap: ["verify", name, "--grid", str(cap)], st.sampled_from(sorted(VERIFIERS)), sizes),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None, suppress_health_check=list(HealthCheck))
@given(argv=commands, as_json=st.booleans())
def _through_main(argv, as_json):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv + ["--json"] * as_json)
        except SystemExit as exc:  # argparse's own usage errors, exit status 2
            code = exc.code
    assert code in (0, 1, 2), (argv, code)


def test_no_input_escapes_main():
    """Every draw exits 0, 1 or 2; a runaway build or search would blow the
    time bound, which is 20 times what the run takes."""
    start = time.perf_counter()
    _through_main()
    assert time.perf_counter() - start < 10
