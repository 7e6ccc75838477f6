"""Exact symmetric-function arithmetic in the power-sum, elementary and Schur bases.

Every value is homogeneous of a fixed degree, stored sparsely as a map from
partitions (the basis indices) to exact coefficients, ``int`` where integral
(every CSF) and ``fractions.Fraction`` otherwise; the two agree on ``==``,
hash, ``str`` and JSON, and ``coefficient`` and witnesses return ``Fraction``.
Basis changes are exact and direct, and sum in integers over one common
denominator, on one index format: the ``_count_keys`` integers of the one
table of every degree up to 63, each named as a Partition once per
process, by ``_divided``, the pass that divides them and names the closed
CSF forms and every product too.  Rows are multiplied out by
``partitions._acc``, as are products and the closed CSF forms, and each is
a pair of parallel key and coefficient tuples.  ``e -> s`` and ``s -> e``
expand one basis element at a time and keep each row packed in ``_met``,
whose record per direction and degree holds the field of each key met
and, per index, the bit length of its row's largest entry and one packed
int, at a second field width only once a call sums it there.  ``e -> s`` also memoizes the one step its rows
share, and its rows as tuples, as each grows the rows of longer indices;
``s -> e`` frees its minors with each row.

Every ``e -> s`` and ``s -> e``, and every ``e -> p`` and ``p -> e`` after a
process's first in its direction at a degree (which runs the nested
evaluation below), sums packed rows.  A ``p -> e`` above
``DEFAULT_TRANSITION_CAP``, which no guard refuses, is always nested, as a
record there would hold :math:`p(d)^2` fields.  Each index's integral row
(for ``p -> e`` and ``e -> p`` the product of the one-part Newton rows,
memoized with them in ``_product`` per index less its 1s, which for
``e -> p``, times the multinomial below, is :math:`d!\\,e_\\lambda`) is one
int whose field i holds its coefficient of the i-th count key met at that
degree in that direction, so a conversion is one big-integer multiply-add
per term.  A row is written as unsigned little-endian 64-bit words, k per
field in two's complement, and the sum read back on the same words, each
field's top one signed, by one ``struct`` pack per row and one unpack per
sum, so no result depends on the host's byte order; the read fields are
divided, stripped of zeros and named in one pass.  A field is the least
power of two from 64 bits that exceeds the bit lengths of the largest
coefficient, of the largest row entry and of the number of terms, plus
one, so no field sum reaches the bias of half a field added before
reading, and none borrows from the next.

* ``p -> e`` and ``e -> p`` build each one-part element's row from the
  smaller rows on count keys, with no partition enumerated, by Newton's
  identities (Macdonald I.2),
  :math:`p_n = \\sum_{i<n} (-1)^{i-1} e_i\\, p_{n-i} + (-1)^{n-1} n\\, e_n` and
  :math:`n!\\,e_n = \\sum_{i=1}^{n} (-1)^{i-1} \\frac{(n-1)!}{(n-i)!}\\, p_i\\,(n-i)!\\,e_{n-i}`,
  memoized with their products per part and table width, and multiply out a
  whole function at once by nested (Horner) evaluation over the trie of its
  indices, each index an integer count vector.  ``_newton`` is the one
  route of both directions, nested or packed, and the CSF oracle hands it
  its table on the same keys, with no ``SymFunc`` between.  For ``e -> p``
  the product of the :math:`\\lambda_j!\\,e_{\\lambda_j}`, weighted by the
  multinomial :math:`d!/\\prod_j \\lambda_j!`, is :math:`d!\\,e_\\lambda`, so
  the sums stay integral and each output term is divided by :math:`d!` once.
* ``e -> s`` grows :math:`e_\\mu` one part at a time by the dual Pieri rule
  (:math:`s_\\lambda e_k` is the sum of :math:`s_\\nu` over the vertical
  k-strips :math:`\\nu/\\lambda`), so its coefficients are the Kostka numbers
  :math:`K_{\\lambda^t\\mu}` (Stanley, EC2 7.15; Macdonald I.5).  The
  strips of each :math:`(\\lambda, k)` are walked once per process, their
  keys summed on the walk, however many :math:`e_\\mu` meet them.
* ``s -> e`` expands the dual Jacobi-Trudi determinant
  :math:`s_\\lambda = \\det(e_{\\lambda^t_i - i + j})` by memoized minors: an
  entry :math:`e_v` adds ``unit[v]``, and ``unit[0] = 0`` stands for
  :math:`e_0 = 1`.  The two Schur directions share ``_packed`` on every
  call but no row, step or memo, so a round trip checks one route against
  the other; the tests check ``_packed`` against a per-element dict sum.
"""

from __future__ import annotations

import struct
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import add, mul, sub

from .partitions import DEFAULT_ENUMERATION_CAP, Partition, _acc, _count_keys, partitions_of

#: refuse e -> p and e -> s transitions above this degree, and keep no packed
#: p -> e rows above it
DEFAULT_TRANSITION_CAP = 22


def fraction_json(c: Fraction) -> dict:
    """The JSON form of an exact coefficient: numerator and denominator as strings."""
    return {"num": str(c.numerator), "den": str(c.denominator)}


def signed_sum(terms) -> str:
    """Join nonzero (coefficient, body) pairs as ``2*a - b + 3``: an empty body
    is a constant term, and a coefficient of magnitude 1 prints the body alone."""
    out = ""
    for c, body in terms:
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        out += f" {'-' if c < 0 else '+'} {text}"
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


class Basis(str, Enum):
    P = "p"
    E = "e"
    S = "s"


class SymFunc:
    """A homogeneous symmetric function with exact rational coefficients."""

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis, degree: int, terms=None):
        basis = Basis(basis)
        clean = {}
        for lam, c in (terms or {}).items():
            if not isinstance(lam, Partition):
                lam = Partition(lam)
            c = Fraction(c)
            if c == 0:
                continue
            if lam.weight != degree:
                raise ValueError(
                    f"term {lam} has weight {lam.weight}, expected degree {degree}"
                )
            clean[lam] = c.numerator if c.denominator == 1 else c
        self.basis = basis
        self.degree = degree
        self.terms = clean

    @classmethod
    def _trusted(cls, basis: Basis, degree: int, terms: dict) -> "SymFunc":
        """Unchecked: every key is a Partition of weight ``degree``.  Zero terms are dropped."""
        out = object.__new__(cls)
        out.basis, out.degree = basis, degree
        out.terms = {lam: c for lam, c in terms.items() if c}
        return out

    # ---------------------------------------------------------------- helpers

    @classmethod
    def single(cls, basis, parts, coeff=1) -> "SymFunc":
        lam = Partition(parts)
        return cls(basis, lam.weight, {lam: coeff})

    def coefficient(self, parts) -> Fraction:
        lam = Partition(parts)
        if lam.weight != self.degree:
            raise ValueError(
                f"partition {lam} has weight {lam.weight}, function has degree {self.degree}"
            )
        return Fraction(self.terms.get(lam, 0))

    def support(self) -> list:
        """Basis partitions with nonzero coefficient, in canonical (desc-lex) order."""
        return sorted(self.terms, reverse=True)

    # ------------------------------------------------------------- arithmetic

    def _check_basis(self, other):
        if self.basis is not other.basis:
            raise ValueError(f"basis mismatch: {self.basis.value} vs {other.basis.value}")

    def _merged(self, other, op):
        """``op(self, other)`` term by term, for ``op`` add or sub: no
        temporary ``-other`` for a difference."""
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_basis(other)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        terms = dict(self.terms)
        get = terms.get
        for lam, c in other.terms.items():
            terms[lam] = op(get(lam, 0), c)
        return SymFunc._trusted(self.basis, self.degree, terms)

    def __add__(self, other):
        return self._merged(other, add)

    def __sub__(self, other):
        return self._merged(other, sub)

    def __neg__(self):
        return SymFunc._trusted(self.basis, self.degree, {lam: -c for lam, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            self._check_basis(other)
            if self.basis is Basis.S:  # Schur indices do not multiply by concatenation
                raise ValueError("products are supported in the p and e bases only")
            degree = self.degree + other.degree
            unit = _count_keys(degree)[0]
            a, b = ([(sum(map(unit.__getitem__, lam)), c) for lam, c in f.terms.items()] for f in (self, other))
            return _divided(self.basis, degree, _acc({}, 1, a, b).items(), 1)
        if isinstance(other, (int, Fraction)):
            return SymFunc._trusted(self.basis, self.degree, {lam: v * other for lam, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (
            self.basis is other.basis
            and self.degree == other.degree
            and self.terms == other.terms
        )

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -------------------------------------------------------------- analysis

    def is_nonnegative(self):
        """(True, None) if every coefficient is >= 0, else (False, witness).

        The witness is the lexicographically smallest partition carrying a
        negative coefficient, paired with that coefficient.
        """
        negatives = [lam for lam, c in self.terms.items() if c < 0]
        if not negatives:
            return True, None
        lam = min(negatives)
        return False, (lam, Fraction(self.terms[lam]))

    def evaluate_ones(self, n: int) -> Fraction:
        """Specialize to n variables all equal to 1 (principal specialization at 1^n)."""
        if n < 0:
            raise ValueError("number of variables must be nonnegative")
        if self.basis is Basis.S:
            return s_to_e(self).evaluate_ones(n)
        if self.basis is Basis.P:
            return sum((c * n ** len(lam) for lam, c in self.terms.items()), Fraction(0))
        return sum((c * prod(comb(n, part) for part in lam) for lam, c in self.terms.items()), Fraction(0))

    # ---------------------------------------------------------- serialization

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis.value,
            "degree": self.degree,
            "terms": [
                {"partition": list(lam), **fraction_json(self.terms[lam])}
                for lam in self.support()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SymFunc":
        terms = {}
        for t in obj["terms"]:
            lam = Partition(t["partition"])
            terms[lam] = Fraction(int(t["num"]), int(t["den"]))
        return cls(obj["basis"], obj["degree"], terms)

    def __str__(self):
        return signed_sum((self.terms[lam], f"{self.basis.value}{lam}") for lam in self.support())

    def __repr__(self):
        return f"SymFunc({self.basis.value!r}, {self.degree}, {self})"


# ----------------------------------------------------- per-index expansions
#
# Every conversion row is keyed on the ``_count_keys`` integers of its
# degree, as parallel key and coefficient tuples, and a conversion names the
# keys as Partitions once, when it returns.  ``SymFunc.__mul__`` keys both
# factors on the table of the product's degree, where a product adds keys,
# multiplies them by ``_acc`` and names the result by ``_divided`` too.


def _power_in_e(n: int, i: int) -> int:
    """Newton's identity p_n = sum_{i<n} (-1)^(i-1) e_i p_{n-i} + (-1)^(n-1) n e_n:
    the coefficient of e_i times the row of p_{n-i}."""
    return (-1) ** (i - 1) * (n if i == n else 1)


def _elementary_in_p(n: int, i: int) -> int:
    """Newton's identity n! e_n = sum_i (-1)^(i-1) (n-1)!/(n-i)! p_i (n-i)! e_{n-i}:
    the coefficient of p_i times the row of (n-i)! e_{n-i}.  Every row is
    integral: its p_mu entry is +-n!/z_mu, the permutations of cycle type mu."""
    return (-1) ** (i - 1) * factorial(n - 1) // factorial(n - i)


@lru_cache(maxsize=None)
def _pieri(key: int, n: int, k: int) -> tuple:
    """The dual Pieri step s_lambda * e_k, lambda |- n <= 22 given by its
    key: the keys, on the same table, of every nu such that nu/lambda is a
    vertical k-strip, k boxes at most one per row, summed on one walk of the
    rows from lambda's key.  Each (lambda, k) is walked once per process,
    however many e_mu share it."""
    unit, decode = _count_keys(n)
    rows = decode(key) + (0,) * k
    out = []

    def walk(i, left, above, key):
        if not left:
            out.append(key)
            return
        r = rows[i]
        if above > r:  # a box fits at the end of row i
            walk(i + 1, left - 1, r + 1, key + unit[r + 1] - unit[r])
        if r:  # row i unchanged; an empty row ends the shape
            walk(i + 1, left, r, key)

    walk(0, k, n + 1, key)  # no row above row 0 bounds it
    return tuple(out)


@lru_cache(maxsize=None)
def _elementary_in_s(mu: tuple) -> tuple:
    """s-expansion of e_mu: the Kostka numbers K_{lambda^t, mu}, as parallel
    key and coefficient tuples, the keys ``_count_keys(|mu|)`` integers.

    e_mu = e_{mu minus its last part} * e_k, and by the dual Pieri rule
    s_lambda * e_k is the sum of s_nu over the vertical k-strips nu/lambda,
    taken from the shared step ``_pieri``.  The memo also serves every
    longer mu, so it keeps each row, two tuples, beside its packed int.
    """
    if not mu:
        return (0,), (1,)
    n = sum(mu) - mu[-1]
    acc = {}
    get = acc.get
    for key, c in zip(*_elementary_in_s(mu[:-1])):
        for nu in _pieri(key, n, mu[-1]):
            acc[nu] = get(nu, 0) + c
    return tuple(acc), tuple(acc.values())


def _jacobi_trudi_dual(lam: Partition) -> tuple:
    """e-expansion of s_lambda via det(e_{lambda^t_i - i + j}), memoized
    cofactors, as parallel key and coefficient tuples, the keys
    ``_count_keys(|lambda|)`` integers.

    The determinant is expanded along rows over the surviving columns; an
    entry e_v adds ``unit[v]`` to the keys of its cofactor, so e_0
    (``unit[0] = 0``) contributes 1, and negative subscripts vanish.  Row i
    has a nonzero entry exactly in the columns j >= i - lambda^t_i, a bound
    that rises with i, so a minor is structurally zero as soon as its
    diagonal is, and the recursion stops there.  Only the minors are
    memoized, per call, and the memo is freed before the row is returned:
    it refers to itself through its closure, so it would otherwise wait
    for the cyclic collector.  ``_packed`` keeps the row, packed, in
    ``_met``.
    """
    conj = lam.transpose()
    unit = _count_keys(lam.weight)[0]

    def entry(i, j):  # 0-based
        return conj[i] - (i + 1) + (j + 1)

    @lru_cache(maxsize=None)
    def minor(i: int, cols: tuple) -> tuple:
        if not cols:
            return (0,), (1,)
        if any(entry(i + k, j) < 0 for k, j in enumerate(cols)):
            return (), ()
        acc = {}
        for pos, j in enumerate(cols):
            _acc(acc, -1 if pos & 1 else 1, zip(*minor(i + 1, cols[:pos] + cols[pos + 1:])), ((unit[entry(i, j)], 1),))
        acc = {k: c for k, c in acc.items() if c}
        return tuple(acc), tuple(acc.values())

    row = minor(0, tuple(range(len(conj))))
    del minor  # the memo's last reference: its minors are freed here
    return row


@lru_cache(maxsize=None)
def _product(rule, lam: tuple, width: int) -> tuple:
    """The product of the one-part rows of Newton's identity ``rule`` over the
    parts of lam, on count keys of ``width`` bits per part, as parallel key
    and coefficient tuples: the row of lam less its last part times the row
    of its last part, and the row of one part n by the recurrence
    row(0) = 1 and row(n) = the sum over i = 1..n of ``rule(n, i)`` times
    unit(i) times row(n - i), zero sums dropped, built from the smaller rows
    with no partition enumerated.  It is p_lam in the e basis for
    ``_power_in_e``, and prod_j lam_j! e_{lam_j} in the p basis for
    ``_elementary_in_p``: the one memo of p -> e and e -> p."""
    if not lam:
        return (0,), (1,)
    if len(lam) > 1:
        acc = _acc({}, 1, zip(*_product(rule, lam[:-1], width)), tuple(zip(*_product(rule, lam[-1:], width))))
        return tuple(acc), tuple(acc.values())
    n, acc = lam[0], {}
    for i in range(1, n + 1):
        _acc(acc, rule(n, i), zip(*_product(rule, (n - i,) if i < n else (), width)), ((1 << width * (i - 1), 1),))
    return tuple(key for key, c in acc.items() if c), tuple(filter(None, acc.values()))


def _row(rule, lam: tuple, weight: int = 1) -> tuple:
    """``_product`` of lam less its 1s, each coefficient times ``weight``, as
    parallel key and coefficient tuples on ``_count_keys(|lam|)`` keys: the
    count of 1s is added to every key, as the row of 1 is the index (1)
    alone in both directions (p_1 = e_1), so the 1s take no memo entry."""
    ones, width = lam.count(1), _count_keys(sum(lam))[0][2].bit_length() - 1  # unit[2] = 2**width
    keys, coeffs = _product(rule, lam[:len(lam) - ones], width)
    return tuple(key + ones for key in keys), tuple(c * weight for c in coeffs)


def _elementary_row(lam: tuple) -> tuple:
    """The p-expansion of d! e_lam, d = |lam|: d!/prod_j lam_j! times the
    product of the lam_j! e_{lam_j}, so the weight is not recomputed per term."""
    return _row(_elementary_in_p, lam, factorial(sum(lam)) // prod(map(factorial, lam)))


# ---------------------------------------------------------------- conversions


def _degree_guard(degree: int) -> None:
    if degree > DEFAULT_TRANSITION_CAP:
        raise ValueError(f"basis transitions guarded at degree {DEFAULT_TRANSITION_CAP}, got {degree}")


def _scaled(f: SymFunc, source: Basis):
    """``f``'s coefficients over one common denominator: ``(den, {lam: numerator})``,
    ``f.terms`` itself, uncopied, when every coefficient is an ``int`` (an
    integral ``Fraction``, as ``f * Fraction(2)`` holds, is not)."""
    if f.basis is not source:
        raise ValueError(f"expected a function in the {source.value} basis, got basis {f.basis.value}")
    if set(map(type, f.terms.values())) <= {int}:
        return 1, f.terms
    den = lcm(*(c.denominator for c in f.terms.values()))
    return den, {lam: c.numerator * (den // c.denominator) for lam, c in f.terms.items()}


def _divided(target: Basis, degree: int, pairs, den: int) -> SymFunc:
    """The function of the integer (key, value) ``pairs`` on ``_count_keys(degree)``
    keys, in one pass: each zero value dropped, each key named by that
    table's memo and each value divided once by ``den``, an ``int`` where exact."""
    decode = _count_keys(degree)[1]
    out = object.__new__(SymFunc)
    out.basis, out.degree = target, degree
    if den == 1:
        out.terms = {decode(key): v for key, v in pairs if v}
    else:
        out.terms = {decode(key): v // den if v % den == 0 else Fraction(v, den) for key, v in pairs if v}
    return out


#: (source basis, target basis, degree) -> the rows packed from ``source``
#: into ``target`` at that degree, keyed by direction, as s -> e and p -> e
#: share a target (``_newton`` enters it empty on its first call there):
#: ``(fields, bits, packs)``, the field of each count key met there,
#: numbered in the order met; per index the bit length of its row's largest
#: entry; and per field width {index: its row packed as one int}, an index
#: held at a second width only once a call has summed it there
_met = {}


def _packed(table: dict, degree: int, source: Basis, target: Basis, rows, den: int) -> SymFunc:
    """The linear map b_lam -> ``rows(lam)`` (integral, on ``_count_keys(degree)``
    keys) of the integer ``table`` {lam: a_lam}, each output term divided by
    ``den``: one sum of a_lam times lam's row packed as one int (field i its
    coefficient of the i-th key of ``_met``), at the width the module
    docstring gives.  A row is written as unsigned little-endian 64-bit
    words, k = width/64 per field in two's complement, and the biased sum
    read back with each field's top word signed, by one ``struct`` pack per
    row and one unpack per sum, so no result depends on the host's byte
    order; the read fields go to ``_divided``.  A row is a pair of parallel
    key and coefficient tuples.  A new index's row is read once and packed
    at the width its own entries need with this call's coefficients; it is
    read again only by a call that sums it at a width it is not held at."""
    fields, bits, packs = _met.setdefault((source, target, degree), ({}, {}, {}))
    need = max(map(abs, table.values()), default=0).bit_length() + len(table).bit_length() + 1

    def bias(k):
        """Half a field in every field met, k 64-bit words each."""
        return int.from_bytes((bytes(8 * k - 1) + b"\x80") * len(fields), "little")

    def pack(row, k):
        keys, cs = row
        at = [fields.setdefault(key, len(fields)) * k for key in keys]
        words = [0] * (k * len(fields))
        for j in range(k):  # each entry's words in two's complement, low first
            for i, c in zip(at, cs):
                words[i + j] = c >> 64 * j & 0xFFFF_FFFF_FFFF_FFFF
        b = bias(k)
        return (int.from_bytes(struct.pack(f"<{len(words)}Q", *words), "little") ^ b) - b

    for lam in table:
        if lam not in bits:
            row = rows(lam)
            bits[lam] = max(map(abs, row[1])).bit_length()
            own = 1 << max(6, (need + bits[lam]).bit_length())
            packs.setdefault(own, {})[lam] = pack(row, own >> 6)
    width = 1 << max(6, (need + max(map(bits.__getitem__, table), default=0)).bit_length())
    k, ints = width >> 6, packs.setdefault(width, {})
    for lam in table:
        if lam not in ints:
            ints[lam] = pack(rows(lam), k)
    b = bias(k)
    total = (sum(map(mul, table.values(), map(ints.__getitem__, table))) + b) ^ b
    words = struct.unpack("<" + f"{k - 1}Qq" * len(fields), total.to_bytes(8 * k * len(fields), "little"))
    values = words[k - 1::k]  # each field's top word, signed
    for j in reversed(range(k - 1)):  # and its low words under it
        values = [v << 64 | w for v, w in zip(values, words[j::k])]
    return _divided(target, degree, zip(fields, values), den)


def _nested(table: dict, degree: int, target: Basis, rule, den: int) -> SymFunc:
    """The linear map sending each basis element b_lam to the product of the
    integral one-part rows ``_product(rule, (lam_j,), width)`` of Newton's
    identity ``rule``, in a ``target`` basis that multiplies by index
    concatenation, divided once by ``den``.  ``table`` holds integer
    coefficients keyed on ``_count_keys(degree)`` integers.

    Nested (Horner) evaluation over the trie of the indices, parts in
    decreasing order.  A node is a key with its 1s removed.  Its value holds
    the coefficients of the table's keys that reduce to it, keyed on their
    1s, plus, over its children, the row of s times the child's value,
    where s is the child's smallest part.  The row of 1 is the index (1)
    alone, so the 1s add no node and only stay in the key.  A node's parent
    is ``node - unit[s]``, a smaller integer, so walking the nodes in
    decreasing order folds each into its parent after its children, with no
    recursion.  A product adds keys; ``_divided`` names the output keys.
    """
    unit = _count_keys(degree)[0]
    ones = unit[2] - 1  # the field of part 1
    width = ones.bit_length()
    sums = {0: {}}
    for key, a in table.items():
        leaf = node = key & ~ones
        while node not in sums:  # the leaf and its ancestors, up to the first one there
            sums[node] = {}
            node -= unit[((node & -node).bit_length() - 1) // width + 1]  # less its smallest part
        sums[leaf][key & ones] = a
    for node in sorted(sums, reverse=True)[:-1]:  # the root 0 sorts last
        s = ((node & -node).bit_length() - 1) // width + 1  # the smallest part; a node has no 1s
        _acc(sums[node - unit[s]], 1, sums.pop(node).items(), tuple(zip(*_product(rule, (s,), width))))
    return _divided(target, degree, sums[0].items(), den)


def _newton(table: dict, degree: int, target: Basis, den: int = 1) -> SymFunc:
    """p -> e (``target`` e) or e -> p (``target`` p) of the integer ``table``
    over ``den``, keyed on ``_count_keys(degree)`` integers for p -> e, as
    ``_encoded`` and the CSF oracle give it, and on Partitions for e -> p, as
    ``_scaled`` gives it.  A process's first conversion at a degree in a
    direction runs ``_nested``, and so does every p -> e above
    ``DEFAULT_TRANSITION_CAP``, where a record would hold p(d)^2 fields;
    every later one sums packed rows, ``_packed``.  For e -> p both sum
    d! e_lam, d!/prod_j lam_j! times the product of the lam_j! e_{lam_j}
    rows, and divide each output term by d! once."""
    to_p = target is Basis.P
    source, d = (Basis.E, factorial(degree)) if to_p else (Basis.P, 1)
    if (source, target, degree) in _met:
        decode = _count_keys(degree)[1]
        rows = _elementary_row if to_p else lambda key: _row(_power_in_e, decode(key))
        return _packed(table, degree, source, target, rows, den * d)
    if degree <= DEFAULT_TRANSITION_CAP:
        _met[source, target, degree] = {}, {}, {}
    if to_p:
        unit = _count_keys(degree)[0]
        table = {sum(map(unit.__getitem__, lam)): a * (d // prod(map(factorial, lam))) for lam, a in table.items()}
    return _nested(table, degree, target, _elementary_in_p if to_p else _power_in_e, den * d)


def _encoded(f: SymFunc):
    """The p-function ``f``'s numerators over one common denominator, keyed
    on ``_count_keys(f.degree)`` integers: ``(table, den)``, the input of
    ``_newton``.  The row of a part n is built with every smaller row, one
    entry per partition of each k <= n, so a part above
    ``DEFAULT_ENUMERATION_CAP`` is refused by ``partitions_of`` here, before
    the degree's keys are built."""
    den, scaled = _scaled(f, Basis.P)
    top = max((lam[0] for lam in scaled if lam), default=0)
    if top > DEFAULT_ENUMERATION_CAP:
        partitions_of(top)  # raises
    unit = _count_keys(f.degree)[0]
    return {sum(map(unit.__getitem__, lam)): a for lam, a in scaled.items()}, den


def p_to_e(f: SymFunc) -> SymFunc:
    """Convert from the power-sum basis to the elementary basis (exact)."""
    table, den = _encoded(f)
    return _newton(table, f.degree, Basis.E, den)


def e_to_p(f: SymFunc) -> SymFunc:
    """Convert from the elementary basis to the power-sum basis (exact): d! e_lam is prod_j lam_j! e_{lam_j}
    times d! / prod_j lam_j!, in integers, then one division by d! per output term."""
    _degree_guard(f.degree)
    den, scaled = _scaled(f, Basis.E)
    return _newton(scaled, f.degree, Basis.P, den)


def e_to_s(f: SymFunc) -> SymFunc:
    """Convert from the elementary basis to the Schur basis (exact).

    Each e_mu expands by the dual Pieri rule into Kostka numbers, nonnegative
    integers summed on ``_count_keys(f.degree)`` keys.  Only the packed sum
    is shared with ``s_to_e``, no row, step or memo, so a round trip through
    both checks one route against the other.
    """
    _degree_guard(f.degree)
    den, scaled = _scaled(f, Basis.E)
    return _packed(scaled, f.degree, Basis.E, Basis.S, _elementary_in_s, den)


def s_to_e(f: SymFunc) -> SymFunc:
    """Convert from the Schur basis to the elementary basis (exact)."""
    den, scaled = _scaled(f, Basis.S)
    return _packed(scaled, f.degree, Basis.S, Basis.E, _jacobi_trudi_dual, den)


def convert(f: SymFunc, basis) -> SymFunc:
    """Convert ``f`` to the requested basis (identity when already there)."""
    target = Basis(basis)
    if f.basis is target:
        return f
    if target is not Basis.E:  # before the first leg, not after it
        _degree_guard(f.degree)
    if f.basis is not Basis.E:  # every route passes through the e basis
        f = p_to_e(f) if f.basis is Basis.P else s_to_e(f)
    if target is Basis.E:
        return f
    return e_to_p(f) if target is Basis.P else e_to_s(f)
