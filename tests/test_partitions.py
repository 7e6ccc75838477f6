from collections import Counter

import pytest
from hypothesis import given, strategies as st

from chromsym.partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    _acc,
    partitions_of,
)


def partition_count(n: int) -> int:
    """Independent partition counter (coin-change dynamic program)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def successor_walk(n: int) -> list:
    """Partitions of n, largest first, by the successor walk the library used
    before its recursive generator: each step lowers the rightmost part above
    1 by one and spreads the freed units in parts no larger."""
    if n == 0:
        return [()]
    out, a = [], [n]
    while True:
        out.append(tuple(a))
        k = len(a) - 1
        while k >= 0 and a[k] == 1:
            k -= 1
        if k < 0:
            return out
        rem = len(a) - k
        a[k] -= 1
        del a[k + 1:]
        while rem > 0:
            a.append(min(rem, a[k]))
            rem -= a[-1]


small_partitions = st.integers(0, 9).flatmap(
    lambda n: st.sampled_from(partitions_of(n)) if n else st.just(Partition())
)


class TestPartitionType:
    def test_sorts_parts_descending(self):
        assert Partition((1, 3, 2)) == (3, 2, 1)

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Partition((1.5, 1))
        with pytest.raises(TypeError):
            Partition((True, 1))

    def test_weight_and_length(self):
        lam = Partition((4, 2, 1))
        assert lam.weight == 7
        assert len(lam) == 3
        assert Partition().weight == 0

    def test_str_largest_part_first(self):
        assert str(Partition((1, 3, 2))) == "[3,2,1]"
        assert str(Partition()) == "[]"

    def test_transpose_known_values(self):
        assert Partition((4, 2, 1)).transpose() == (3, 2, 1, 1)
        assert Partition((3, 3)).transpose() == (2, 2, 2)
        assert Partition().transpose() == ()

    @given(small_partitions)
    def test_transpose_is_an_involution(self, lam):
        assert lam.transpose().transpose() == lam

    @given(small_partitions)
    def test_transpose_preserves_weight(self, lam):
        assert lam.transpose().weight == lam.weight


class TestEnumeration:
    def test_partitions_of_four_in_order(self):
        assert [tuple(p) for p in partitions_of(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_counts_match_dynamic_program(self):
        for n in range(0, 17):
            assert len(partitions_of(n)) == partition_count(n)

    def test_order_is_descending_lexicographic(self):
        for n in range(1, 12):
            parts = partitions_of(n)
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)

    def test_matches_successor_walk(self):
        for n in range(DEFAULT_ENUMERATION_CAP + 1):
            parts = partitions_of(n)
            assert parts == successor_walk(n), n
            assert all(type(lam) is Partition for lam in parts)

    def test_all_results_weigh_n(self):
        for n in range(0, 12):
            assert all(lam.weight == n for lam in partitions_of(n))

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            partitions_of(DEFAULT_ENUMERATION_CAP + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)


pairs = st.lists(st.tuples(st.integers(0, 40), st.integers(-4, 4)), max_size=5)


class TestAccumulator:
    """``_acc``, the one product of count-key expansions, against a Counter."""

    @given(st.dictionaries(st.integers(0, 80), st.integers(-9, 9), max_size=4), st.integers(-3, 3), pairs, pairs)
    def test_matches_a_counter(self, start, c, a, b):
        want = Counter(start)
        for ka, va in a:
            for kb, vb in b:
                want[ka + kb] += c * va * vb
        out = dict(start)
        assert _acc(out, c, a, b) is out
        assert out == dict(want)  # zero entries included

    @given(st.integers(-3, 3), pairs)
    def test_b_defaults_to_e_0_alone(self, c, a):
        want = Counter()
        for ka, va in a:
            want[ka] += c * va
        assert _acc({}, c, a) == dict(want)

    def test_a_cancelled_sum_stays_as_zero(self):
        assert _acc({5: 3}, -1, [(2, 1)], [(3, 3)]) == {5: 0}
        assert _acc({}, 1, [(0, 2), (1, -2)], [(1, 1), (0, 1)]) == {1: 0, 0: 2, 2: -2}
        assert _acc({}, 0, [(1, 7)], [(2, 5)]) == {3: 0}


def coarsenings(lam):
    """All partitions reachable by summing groups of lam's parts (brute force)."""
    parts = list(lam)
    out = set()

    def rec(remaining, blocks):
        if not remaining:
            out.add(Partition(sum(b) for b in blocks))
            return
        head, *tail = remaining
        for i in range(len(blocks)):
            rec(tail, blocks[:i] + [blocks[i] + [head]] + blocks[i + 1:])
        rec(tail, blocks + [[head]])

    rec(parts, [])
    return out
