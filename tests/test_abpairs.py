"""The statistics of ``tools/abpairs.py`` on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("abpairs", Path(__file__).resolve().parent.parent / "tools" / "abpairs.py")
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)


@pytest.mark.parametrize(
    "wins, losses, p",
    [(9, 1, 22 / 1024), (10, 0, 2 / 1024), (0, 10, 2 / 1024), (8, 2, 112 / 1024), (5, 5, 1.0), (0, 0, 1.0), (1, 0, 1.0)],
)
def test_sign_test_is_exact_and_two_sided(wins, losses, p):
    assert abpairs.sign_test_p(wins, losses) == p


def test_compare_counts_wins_in_the_metric_direction():
    pairs = [(1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (4.0, 5.0), (5.0, 6.0)]
    higher = abpairs.compare(pairs, "higher", 0.2)
    assert (higher["wins_b"], higher["ties"]) == (3, 1)
    assert higher["sign_test_p"] == 2 * (1 + 4) / 16
    assert higher["a"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert higher["b"] == {"median": 2.0, "q1": 2.0, "q3": 5.0}
    assert higher["change"] == 2.0 / 3.0 - 1
    lower = abpairs.compare(pairs, "lower", 0.2)
    assert (lower["wins_b"], lower["ties"]) == (1, 1)
    assert lower["pairs"] == [list(p) for p in pairs]


@pytest.mark.parametrize(
    "better, pairs, bound, within, spread, unresolved",
    [
        # A: median 100, quartiles 95 and 105; B's median 85 is 15% lower
        ("higher", [(90, 80), (95, 85), (100, 85), (105, 90), (110, 95)], 0.2, True, 0.1, False),
        ("higher", [(90, 80), (95, 85), (100, 85), (105, 90), (110, 95)], 0.1, False, 0.1, False),
        ("lower", [(90, 80), (95, 85), (100, 85), (105, 90), (110, 95)], 0.05, True, 0.1, True),
        # A: median 2, quartiles 1.5 and 3; B's median 2.5 is 25% higher
        ("lower", [(1.0, 2.0), (1.5, 2.5), (2.0, 2.5), (3.0, 3.0), (4.0, 2.0)], 0.24, False, 0.75, True),
        ("higher", [(1.0, 2.0), (1.5, 2.5), (2.0, 2.5), (3.0, 3.0), (4.0, 2.0)], 0.24, True, 0.75, True),
        # exactly at the bound is within it
        ("lower", [(4.0, 5.0)], 0.25, True, 0.0, False),
    ],
)
def test_bound_and_spread(better, pairs, bound, within, spread, unresolved):
    """B's median against A's within the metric's bound in the worse
    direction, and A's quartile spread against the same bound."""
    got = abpairs.compare(pairs, better, bound)
    assert got["within_bound"] is within
    assert got["a_spread"] == pytest.approx(spread)
    assert got["unresolved"] is unresolved


def test_a_zero_median_has_no_change_or_spread():
    got = abpairs.compare([(0.0, 1.0), (0.0, 2.0)], "lower", 0.1)
    assert (got["change"], got["within_bound"], got["a_spread"], got["unresolved"]) == (None, None, None, None)
    assert got["gain"] is None


#: A: median 99.5, quartiles 97.25 and 101.75, a spread of about 4.5%
GAIN_A = [95.0, 96.0, 97.0, 98.0, 99.0, 100.0, 101.0, 102.0, 103.0, 104.0]


@pytest.mark.parametrize(
    "better, shift, first, second, wins, gain",
    [
        ("higher", 10, 105, 106, 10, True),
        ("higher", 10, 90, 106, 9, True),  # one loss
        ("higher", 10, 95, 106, 9, True),  # one tie, counting for neither side
        ("higher", 10, 90, 91, 8, False),  # two losses
        ("higher", 10, 95, 91, 8, False),  # a tie and a loss
        ("higher", 3, 98, 99, 10, False),  # every pair won, by less than the spread
        ("lower", -10, 85, 86, 10, True),
        ("lower", -10, 100, 86, 9, True),
        ("lower", -10, 100, 101, 8, False),
        ("lower", -3, 92, 93, 10, False),
        ("lower", 10, 105, 106, 0, False),  # a clear loss is no gain
    ],
)
def test_gain_needs_nine_wins_in_ten_and_a_median_move_beyond_the_spread(better, shift, first, second, wins, gain):
    """B's values are A's moved by ``shift``, its first two replaced."""
    pairs = list(zip(GAIN_A, [first, second] + [a + shift for a in GAIN_A[2:]]))
    got = abpairs.compare(pairs, better, 0.24)
    assert got["a_spread"] == pytest.approx(4.5 / 99.5)
    assert got["wins_b"] == wins
    assert got["gain"] is gain


def test_summary_of_one_value_and_of_four():
    assert abpairs.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}
    assert abpairs.summary([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_seed_lists():
    assert abpairs.seed_list("1-10") == list(range(1, 11))
    assert abpairs.seed_list("3,5,9") == [3, 5, 9]


@pytest.mark.parametrize("argv", [["HEAD"], ["HEAD", "HEAD", "HEAD"], ["--same", "HEAD", "HEAD"], []])
def test_revisions_are_two_or_one_same(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        abpairs.main([*argv, "--workload", "cli_calls"])
    assert exc.value.code == 2
    assert "give REV_A REV_B, or --same REV" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["verify_cfs", "all"])
def test_workload_is_one_of_the_benchmark_s(workload, capsys, monkeypatch):
    """A name that is not one of ``BENCHMARK.json``'s workloads, ``all``
    included, exits 2 before any revision is exported."""

    def refuse(*args):
        pytest.fail("a revision was exported")

    monkeypatch.setattr(abpairs, "export", refuse)
    with pytest.raises(SystemExit) as exc:
        abpairs.main(["HEAD", "HEAD", "--workload", workload])
    assert exc.value.code == 2
    assert f"argument --workload: invalid choice: '{workload}'" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["5-3", "1-0"])
def test_an_empty_seed_range_exits_before_any_export(seeds, capsys, monkeypatch):
    """A range that names no seed exits 2 at the argument: past it, both
    revisions would be exported and no pair run, and ``summary`` would fail
    on no values."""

    def refuse(*args):
        pytest.fail("a revision was exported")

    monkeypatch.setattr(abpairs, "export", refuse)
    with pytest.raises(SystemExit) as exc:
        abpairs.main(["HEAD", "HEAD", "--workload", "cli_calls", "--seeds", seeds])
    assert exc.value.code == 2
    assert f"argument --seeds: empty seed range '{seeds}'" in capsys.readouterr().err
