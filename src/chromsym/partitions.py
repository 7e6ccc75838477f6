"""Integer partitions: construction, enumeration, conjugation and the coarsening order."""

from __future__ import annotations

from functools import lru_cache

#: refuse to enumerate partitions of anything larger than this
DEFAULT_ENUMERATION_CAP = 40


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Input order is irrelevant: ``Partition([1, 3, 2])`` canonicalizes to
    ``(3, 2, 1)``.  The empty partition ``Partition()`` has weight 0.
    Instances compare and hash like plain tuples, so they can key dicts
    shared with ordinary tuple code.
    """

    def __new__(cls, parts=()):
        parts = sorted(parts, reverse=True)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool):
                raise TypeError(f"partition parts must be integers, got {p!r}")
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p!r}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def transpose(self) -> "Partition":
        """Conjugate partition: part ``i`` of the transpose counts parts ``>= i``."""
        if not self:
            return self
        return Partition(sum(1 for p in self if p >= i) for i in range(1, self[0] + 1))

    def multiplicities(self) -> dict:
        """Map part value -> number of times it occurs."""
        mult = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Inverse of ``str``: ``"[3,2,1]"`` -> Partition, ``"[]"`` -> empty."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"expected bracketed part list, got {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return cls()
        try:
            parts = [int(tok) for tok in inner.split(",")]
        except ValueError:
            raise ValueError(f"expected comma-separated integers, got {text!r}") from None
        return cls(parts)


@lru_cache(maxsize=None)
def _partition_list(n: int) -> tuple:
    """All partitions of n in lexicographically decreasing order, as a tuple."""
    out = []
    if n == 0:
        return (Partition(),)
    # iterative successor walk starting from the one-part partition (n)
    a = [n]
    while True:
        out.append(Partition(a))
        # find rightmost part > 1
        k = len(a) - 1
        while k >= 0 and a[k] == 1:
            k -= 1
        if k < 0:
            break
        rem = len(a) - k - 1 + 1  # the 1s plus one unit taken from a[k]
        a[k] -= 1
        del a[k + 1:]
        # redistribute rem into parts of size at most a[k]
        while rem > 0:
            take = min(rem, a[k])
            a.append(take)
            rem -= take
    return tuple(out)


def partitions_of(n: int) -> list:
    """All partitions of ``n``, lexicographically decreasing: (n) first, (1,..,1) last.

    Guarded: raises ``ValueError`` for ``n > DEFAULT_ENUMERATION_CAP`` (40) or ``n < 0``.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"partitions_of({n}) exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    return list(_partition_list(n))


@lru_cache(maxsize=None)
def _refines(lam: tuple, mu: tuple) -> bool:
    """Whether the parts of ``lam`` fill bins of sizes ``mu`` (both decreasing, equal weight).

    The first part goes into a bin of each distinct size that fits; what a bin has left is a smaller bin.
    """
    if not lam:
        return True
    first, rest = lam[0], lam[1:]
    for size in dict.fromkeys(mu):
        if size < first:
            break
        bins = list(mu)
        bins.remove(size)
        if size > first:
            bins.append(size - first)
        if _refines(rest, tuple(sorted(bins, reverse=True))):
            return True
    return False


def refines_to(lam, mu) -> bool:
    """True iff ``mu`` can be obtained by merging groups of parts of ``lam``.

    This is the coarsening order: ``refines_to(lam, mu)`` means ``lam <= mu``,
    i.e. the parts of ``lam`` can be split into consecutive-sum groups realizing
    every part of ``mu``.  Partitions of different weights are incomparable.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    if lam.weight != mu.weight:
        return False
    return _refines(tuple(lam), tuple(mu))
