import itertools

import pytest
from hypothesis import given, strategies as st

from chromsym.partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    partitions_of,
    refines_to,
)


def partition_count(n: int) -> int:
    """Independent partition counter (coin-change dynamic program)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


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
        assert lam.length == 3
        assert Partition().weight == 0

    def test_multiplicities(self):
        assert Partition((3, 2, 2, 1)).multiplicities() == {3: 1, 2: 2, 1: 1}

    def test_str_largest_part_first(self):
        assert str(Partition((1, 3, 2))) == "[3,2,1]"
        assert str(Partition()) == "[]"

    def test_parse_round_trip(self):
        for lam in partitions_of(7):
            assert Partition.parse(str(lam)) == lam

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

    def test_all_results_weigh_n(self):
        for n in range(0, 12):
            assert all(lam.weight == n for lam in partitions_of(n))

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            partitions_of(DEFAULT_ENUMERATION_CAP + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)


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


class TestRefinement:
    def test_known_relations(self):
        assert refines_to((2, 1, 1), (2, 2))
        assert refines_to((2, 1, 1), (3, 1))
        assert refines_to((2, 1, 1), (4,))
        assert not refines_to((2, 2), (3, 1))
        assert not refines_to((3, 1), (2, 2))

    def test_weight_mismatch_is_false(self):
        assert not refines_to((2, 1), (2, 2))

    @given(small_partitions)
    def test_reflexive(self, lam):
        assert refines_to(lam, lam)

    @given(small_partitions)
    def test_all_ones_refines_everything(self, lam):
        ones = Partition([1] * lam.weight)
        assert refines_to(ones, lam)
        assert refines_to(lam, Partition((lam.weight,)) if lam.weight else Partition())

    def test_matches_brute_force_grouping(self):
        for n in range(1, 11):
            for lam in partitions_of(n):
                reachable = coarsenings(lam)
                for mu in partitions_of(n):
                    assert refines_to(lam, mu) == (mu in reachable), (lam, mu)

    def test_transitive_on_degree_eight(self):
        parts = partitions_of(8)
        pairs = [(a, b) for a, b in itertools.product(parts, parts) if refines_to(a, b)]
        related = set(pairs)
        for a, b in pairs:
            for c in parts:
                if refines_to(b, c):
                    assert (a, c) in related
