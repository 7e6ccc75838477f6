"""Exact symmetric-function arithmetic in the power-sum, elementary and Schur bases.

Every value is homogeneous of a fixed degree, stored sparsely as a map from
partitions (the basis indices) to exact coefficients, ``int`` where integral
(every CSF) and ``fractions.Fraction`` otherwise; the two agree on ``==``,
hash, ``str`` and JSON, and ``coefficient`` and witnesses return ``Fraction``.
Basis changes are exact and direct, and sum in integers over one common
denominator, on one index format: the ``_count_keys`` integers of their
degree, named as Partitions once, by that degree's memo, in the pass that
divides them.  ``e -> s`` and ``s -> e`` expand one basis element at a time,
each row memoized per element and keyed on those integers, and ``e -> s``
also memoizes the one step its rows share.

* ``p -> e`` and ``e -> p`` expand each one-part element by the signed
  integer formulas
  :math:`p_i = \\sum_{\\mu \\vdash i} (-1)^{i-\\ell(\\mu)}
  \\frac{i\\,(\\ell(\\mu)-1)!}{\\prod_j m_j(\\mu)!}\\, e_\\mu` and
  :math:`i!\\,e_i = \\sum_{\\mu \\vdash i} (-1)^{i-\\ell(\\mu)}
  \\frac{i!}{z_\\mu}\\, p_\\mu`,
  memoized per part and key width, and multiply out a whole function at once
  by nested (Horner) evaluation over the trie of its indices, each index an
  integer count vector.  The CSF oracle hands its table to that evaluator
  on the same keys, with no ``SymFunc`` between.  For
  ``e -> p`` the product of the :math:`\\lambda_j!\\,e_{\\lambda_j}`,
  weighted by the multinomial :math:`d!/\\prod_j \\lambda_j!`, is
  :math:`d!\\,e_\\lambda`, so the sums stay integral and each output term
  is divided by :math:`d!` once.
* ``e -> s`` grows :math:`e_\\mu` one part at a time by the dual Pieri rule
  (:math:`s_\\lambda e_k` is the sum of :math:`s_\\nu` over the vertical
  k-strips :math:`\\nu/\\lambda`), so its coefficients are the Kostka numbers
  :math:`K_{\\lambda^t\\mu}` (Stanley, EC2 7.15; Macdonald I.5).  The
  strips of each :math:`(\\lambda, k)` are walked once per process, however
  many :math:`e_\\mu` meet them.
* ``s -> e`` expands the dual Jacobi-Trudi determinant
  :math:`s_\\lambda = \\det(e_{\\lambda^t_i - i + j})` by memoized minors: an
  entry :math:`e_v` adds ``unit[v]``, and ``unit[0] = 0`` stands for
  :math:`e_0 = 1`.  It shares no row, step or memo with ``e -> s``, so a
  round trip through both checks one route against the other.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import add, sub

from .partitions import DEFAULT_ENUMERATION_CAP, Partition, _count_keys, partitions_of

#: refuse e -> p and e -> s transitions above this degree
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
    def zero(cls, basis, degree: int) -> "SymFunc":
        return cls(basis, degree, {})

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

    def _check_compatible(self, other):
        if self.basis is not other.basis:
            raise ValueError(f"basis mismatch: {self.basis.value} vs {other.basis.value}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def _merged(self, other, op):
        """``op(self, other)`` term by term, for ``op`` add or sub: no
        temporary ``-other`` for a difference."""
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_compatible(other)
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
            self._check_compatible_product(other)
            terms = {}
            for lam, a in self.terms.items():
                for mu, b in other.terms.items():
                    key = _merge(lam, mu)
                    terms[key] = terms.get(key, 0) + a * b
            terms = {tuple.__new__(Partition, key): c for key, c in terms.items()}
            return SymFunc._trusted(self.basis, self.degree + other.degree, terms)
        if isinstance(other, (int, Fraction)):
            return SymFunc._trusted(self.basis, self.degree, {lam: v * other for lam, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def _check_compatible_product(self, other):
        if self.basis is not other.basis:
            raise ValueError(f"basis mismatch: {self.basis.value} vs {other.basis.value}")
        if self.basis is Basis.S:
            # Schur indices do not multiply by concatenation
            raise ValueError("products are supported in the p and e bases only")

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
# Each expansion is a tuple of (index, coefficient) pairs.  Every conversion
# row is keyed on the ``_count_keys`` integers of its degree (``_keyed``
# encodes the one-part rows), and a conversion names them as Partitions once,
# when it returns.  Only ``SymFunc.__mul__`` merges tuples, by ``_merge``.


def _merge(mu: tuple, nu: tuple) -> tuple:
    """The index of a product in a basis that multiplies by concatenation."""
    return tuple(sorted(mu + nu, reverse=True))


def _power_in_e(i: int) -> tuple:
    """e-expansion of p_i by the signed multinomial formula (integer coefficients)."""
    return tuple(
        (mu, (-1) ** (i - len(mu)) * i * factorial(len(mu) - 1) // prod(map(factorial, mu.multiplicities().values())))
        for mu in partitions_of(i)
    )


def _elementary_in_p(i: int) -> tuple:
    """p-expansion of i! * e_i, the signed sum of (i! / z_mu) p_mu over mu |- i.

    i! / z_mu counts the permutations of cycle type mu, so every coefficient
    is an integer.
    """
    return tuple(
        (mu, (-1) ** (i - len(mu)) * factorial(i) // prod(p**m * factorial(m) for p, m in mu.multiplicities().items()))
        for mu in partitions_of(i)
    )


@lru_cache(maxsize=None)
def _keyed(one_part, i: int, width: int) -> tuple:
    """``one_part(i)`` on ``_count_keys`` integers of ``width`` bits per part:
    the memo of p -> e and e -> p, one row for every degree of that width."""
    return tuple((sum(1 << width * (part - 1) for part in mu), c) for mu, c in one_part(i))


def _vertical_strips(lam: tuple, k: int) -> list:
    """Every nu such that nu/lam is a vertical k-strip: k boxes, at most one per row."""
    rows = lam + (0,) * k
    out = []

    def walk(i, left, above, grown):
        if left == 0:
            out.append(grown + lam[i:])
            return
        r = rows[i]
        if above > r:  # a box fits at the end of row i
            walk(i + 1, left - 1, r + 1, grown + (r + 1,))
        if r:  # row i unchanged; an empty row ends the shape
            walk(i + 1, left, r, grown + (r,))

    walk(0, k, (lam[0] if lam else 0) + 1, ())
    return out


@lru_cache(maxsize=None)
def _pieri(key: int, n: int, k: int) -> tuple:
    """The dual Pieri step s_lambda * e_k, lambda |- n given by its
    ``_count_keys(n)`` key: the ``_count_keys(n + k)`` keys of every nu such
    that nu/lambda is a vertical k-strip.  Each (lambda, k) is walked once per
    process, however many e_mu share it."""
    unit = _count_keys(n + k)[0]
    return tuple(sum(map(unit.__getitem__, nu)) for nu in _vertical_strips(_count_keys(n)[1](key), k))


@lru_cache(maxsize=None)
def _elementary_in_s(mu: tuple) -> tuple:
    """s-expansion of e_mu: the Kostka numbers K_{lambda^t, mu}, as integers
    keyed on ``_count_keys(|mu|)`` integers.

    e_mu = e_{mu minus its last part} * e_k, and by the dual Pieri rule
    s_lambda * e_k is the sum of s_nu over the vertical k-strips nu/lambda,
    taken from the shared step ``_pieri``.
    """
    if not mu:
        return ((0, 1),)
    n = sum(mu) - mu[-1]
    acc = {}
    get = acc.get
    for key, c in _elementary_in_s(mu[:-1]):
        for nu in _pieri(key, n, mu[-1]):
            acc[nu] = get(nu, 0) + c
    return tuple(acc.items())


@lru_cache(maxsize=None)
def _jacobi_trudi_dual(lam: Partition) -> tuple:
    """e-expansion of s_lambda via det(e_{lambda^t_i - i + j}), memoized
    cofactors, keyed on ``_count_keys(|lambda|)`` integers.

    The determinant is expanded along rows over the surviving columns; an
    entry e_v adds ``unit[v]`` to the keys of its cofactor, so e_0
    (``unit[0] = 0``) contributes 1, and negative subscripts vanish.  Row i
    has a nonzero entry exactly in the columns j >= i - lambda^t_i, a bound
    that rises with i, so a minor is structurally zero as soon as its
    diagonal is, and the recursion stops there.
    """
    conj = lam.transpose()
    unit = _count_keys(lam.weight)[0]

    def entry(i, j):  # 0-based
        return conj[i] - (i + 1) + (j + 1)

    @lru_cache(maxsize=None)
    def minor(i: int, cols: tuple) -> tuple:
        if not cols:
            return ((0, 1),)
        if any(entry(i + k, j) < 0 for k, j in enumerate(cols)):
            return ()
        acc = {}
        get = acc.get
        for pos, j in enumerate(cols):
            u = unit[entry(i, j)]
            sign = -1 if pos & 1 else 1
            for key, c in minor(i + 1, cols[:pos] + cols[pos + 1:]):
                key += u
                acc[key] = get(key, 0) + sign * c
        return tuple((k, c) for k, c in acc.items() if c)

    return minor(0, tuple(range(len(conj))))


def schur_in_e(parts) -> SymFunc:
    """The Schur function s_lambda written in the elementary basis: the row
    of ``_jacobi_trudi_dual``, its keys named by ``_divided``."""
    lam = Partition(parts)
    if not lam:
        raise ValueError("schur_in_e expects a nonempty partition")
    return _divided(Basis.E, lam.weight, dict(_jacobi_trudi_dual(lam)), 1)


# ---------------------------------------------------------------- conversions


def _degree_guard(degree: int) -> None:
    if degree > DEFAULT_TRANSITION_CAP:
        raise ValueError(f"basis transitions guarded at degree {DEFAULT_TRANSITION_CAP}, got {degree}")


def _scaled(f: SymFunc, source: Basis):
    """``f``'s coefficients over one common denominator: ``(den, {lam: numerator})``."""
    if f.basis is not source:
        raise ValueError(f"expected a function in the {source.value} basis, got basis {f.basis.value}")
    den = lcm(*(c.denominator for c in f.terms.values()))
    return den, {lam: c.numerator * (den // c.denominator) for lam, c in f.terms.items()}


def _divided(target: Basis, degree: int, terms: dict, den: int) -> SymFunc:
    """Integer ``terms`` on ``_count_keys(degree)`` keys, each named by that
    degree's memo and divided once by ``den``, an ``int`` where exact."""
    decode = _count_keys(degree)[1]
    if den == 1:
        return SymFunc._trusted(target, degree, {decode(mu): v for mu, v in terms.items()})
    return SymFunc._trusted(
        target, degree, {decode(mu): v // den if v % den == 0 else Fraction(v, den) for mu, v in terms.items()}
    )


def _apply(f: SymFunc, source: Basis, target: Basis, expand) -> SymFunc:
    """The linear map b_lam -> ``expand(lam)`` (integral), summed in integers
    on the ``_count_keys(f.degree)`` keys ``expand`` gives, each named once."""
    den, scaled = _scaled(f, source)
    terms = {}
    get = terms.get
    for lam, a in scaled.items():
        for mu, w in expand(lam):
            terms[mu] = get(mu, 0) + a * w
    return _divided(target, f.degree, terms, den)


def _nested(table: dict, degree: int, target: Basis, one_part, den: int = 1) -> SymFunc:
    """The linear map sending each basis element b_lam to the product of the
    integral ``one_part(lam_j)``, in a ``target`` basis that multiplies by
    index concatenation, divided once by ``den``.  ``table`` holds integer
    coefficients keyed on ``_count_keys(degree)`` integers.

    Nested (Horner) evaluation over the trie of the indices, parts in
    decreasing order.  A node is a key with its 1s removed.  Its value holds
    the coefficients of the table's keys that reduce to it, keyed on their
    1s, plus, over its children, ``one_part(s)`` times the child's value,
    where s is the child's smallest part.  ``one_part(1)`` is the index (1)
    alone, so the 1s add no node and only stay in the key.  A node's parent
    is ``node - unit[s]``, a smaller integer, so walking the nodes in
    decreasing order folds each into its parent after its children, with no
    recursion.  A product adds keys; ``_divided`` names the output keys.
    """
    unit = _count_keys(degree)[0]
    width = degree.bit_length()
    ones = (1 << width) - 1  # the field of part 1
    sums = {0: {}}
    for key, a in table.items():
        leaf = node = key & ~ones
        while node not in sums:  # the leaf and its ancestors, up to the first one there
            sums[node] = {}
            node -= unit[((node & -node).bit_length() - 1) // width + 1]  # less its smallest part
        sums[leaf][key & ones] = a
    for node in sorted(sums, reverse=True)[:-1]:  # the root 0 sorts last
        s = ((node & -node).bit_length() - 1) // width + 1  # the smallest part; a node has no 1s
        parent = sums[node - unit[s]]
        get = parent.get
        row = _keyed(one_part, s, width)
        for key, a in sums.pop(node).items():
            for k, c in row:
                k += key
                parent[k] = get(k, 0) + a * c
    return _divided(target, degree, sums[0], den)


def _encoded(f: SymFunc, source: Basis, weight=None):
    """``f``'s numerators over one common denominator, keyed on
    ``_count_keys(f.degree)`` integers, each times ``weight(lam)`` if given:
    ``(table, den)``, the input of ``_nested``.  The row of a part enumerates
    that part's partitions, so a part above ``DEFAULT_ENUMERATION_CAP`` is
    refused by ``partitions_of`` here, before the degree's keys are built."""
    den, scaled = _scaled(f, source)
    top = max((lam[0] for lam in scaled if lam), default=0)
    if top > DEFAULT_ENUMERATION_CAP:
        partitions_of(top)  # raises
    unit = _count_keys(f.degree)[0]
    return {sum(map(unit.__getitem__, lam)): a * weight(lam) if weight else a for lam, a in scaled.items()}, den


def p_to_e(f: SymFunc) -> SymFunc:
    """Convert from the power-sum basis to the elementary basis (exact)."""
    table, den = _encoded(f, Basis.P)
    return _nested(table, f.degree, Basis.E, _power_in_e, den)


def e_to_p(f: SymFunc) -> SymFunc:
    """Convert from the elementary basis to the power-sum basis (exact): d! e_lam is prod_j lam_j! e_{lam_j}
    times d! / prod_j lam_j!, in integers, then one division by d! per output term."""
    _degree_guard(f.degree)
    d = factorial(f.degree)
    table, den = _encoded(f, Basis.E, lambda lam: d // prod(map(factorial, lam)))
    return _nested(table, f.degree, Basis.P, _elementary_in_p, den * d)


def e_to_s(f: SymFunc) -> SymFunc:
    """Convert from the elementary basis to the Schur basis (exact).

    Each e_mu expands by the dual Pieri rule into Kostka numbers, nonnegative
    integers summed on ``_count_keys(f.degree)`` keys.  No row, step or memo
    is shared with ``s_to_e``, so a round trip through both checks one route
    against the other.
    """
    _degree_guard(f.degree)
    return _apply(f, Basis.E, Basis.S, _elementary_in_s)


def s_to_e(f: SymFunc) -> SymFunc:
    """Convert from the Schur basis to the elementary basis (exact)."""
    return _apply(f, Basis.S, Basis.E, _jacobi_trudi_dual)


def convert(f: SymFunc, basis) -> SymFunc:
    """Convert ``f`` to the requested basis (identity when already there)."""
    target = Basis(basis)
    if f.basis is target:
        return f
    if f.basis is not Basis.E:  # every route passes through the e basis
        f = p_to_e(f) if f.basis is Basis.P else s_to_e(f)
    if target is Basis.E:
        return f
    return e_to_p(f) if target is Basis.P else e_to_s(f)
