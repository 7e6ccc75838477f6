"""Integer partitions: construction, enumeration and conjugation."""

from __future__ import annotations

from functools import lru_cache

#: refuse to enumerate partitions of anything larger than this
DEFAULT_ENUMERATION_CAP = 40
#: default ceiling on |V| for identity parameter grids; defined here, not in
#: ``identities``, so that the CLI's parser can name it without loading more
DEFAULT_GRID_VERTEX_CAP = 14


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

    def transpose(self) -> "Partition":
        """Conjugate partition: part ``i`` of the transpose counts parts ``>= i``."""
        if not self:
            return self
        return Partition(sum(1 for p in self if p >= i) for i in range(1, self[0] + 1))

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


@lru_cache(maxsize=None)
def _partition_list(n: int) -> tuple:
    """All partitions of n in lexicographically decreasing order, as a tuple.

    A stack of (prefix, what is left, largest part allowed): the next parts
    are pushed smallest first, so the largest is popped first.  Each prefix
    is already weakly decreasing and positive, so it is wrapped as a
    Partition without the constructor's sort and checks.
    """
    out = []
    stack = [((), n, n)]
    while stack:
        prefix, left, most = stack.pop()
        if not left:
            out.append(tuple.__new__(Partition, prefix))
            continue
        for first in range(1, min(left, most) + 1):
            stack.append((prefix + (first,), left - first, first))
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


class _Names(dict):
    """Count key -> the Partition of its parts, largest first, each key decoded
    once, when first met (see ``_count_keys``)."""

    __slots__ = ("width", "unit")

    def __missing__(self, key: int) -> Partition:
        w, unit = self.width, self.unit
        parts, rest = (), key
        while rest:  # the top nonzero field counts the largest part left
            s = (rest.bit_length() - 1) // w
            parts += (s + 1,) * (rest >> w * s)
            rest &= unit[s + 1] - 1
        lam = self[key] = tuple.__new__(Partition, parts)
        return lam


@lru_cache(maxsize=None)
def _count_keys(n: int):
    """Integer keys for multisets of parts summing to at most ``n``: ``(unit, decode)``.

    The key of a multiset is its count vector, the count of part s in bits
    [w(s - 1), ws) with w = ``n.bit_length()``.  ``unit[s]`` is the key of
    {s}, so merging two multisets adds their keys, and ``decode(key)`` is the
    Partition of the parts, largest first.  No count can exceed n < 2**w, so a
    sum never carries into the next part's bits and can never give a wrong
    index.  Memoized per n, so each key is decoded once per process, when
    first met: ``decode`` reads one dict, which holds only the keys met, not
    every partition of n.
    """
    w = n.bit_length()
    names = _Names()
    names.width, names.unit = w, (0, *(1 << w * (s - 1) for s in range(1, n + 1)))
    return names.unit, names.__getitem__


def _acc(out: dict, c: int, a, b=((0, 1),)) -> dict:
    """out += c a b, for ``a`` and ``b`` (count key, coefficient) pairs, ``b`` by
    default e_0 = 1 alone: a product adds keys.  A cancelled sum stays as 0."""
    get = out.get
    for ka, va in a:
        va *= c
        for kb, vb in b:
            k = ka + kb
            out[k] = get(k, 0) + va * vb
    return out
