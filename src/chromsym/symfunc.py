"""Exact symmetric-function arithmetic in the power-sum, elementary and Schur bases.

Every value is homogeneous of a fixed degree, stored sparsely as a map from
partitions (the basis indices) to ``fractions.Fraction`` coefficients.  Basis
changes are exact and direct: each expands one basis element at a time,
memoized on its index, and one linear-map helper applies that expansion to a
function term by term.

* ``p -> e`` and ``e -> p`` expand each one-part element by the signed
  multinomial formulas
  :math:`p_i = \\sum_{\\mu \\vdash i} (-1)^{i-\\ell(\\mu)}
  \\frac{i\\,(\\ell(\\mu)-1)!}{\\prod_j m_j(\\mu)!}\\, e_\\mu` and
  :math:`e_i = \\sum_{\\mu \\vdash i} (-1)^{i-\\ell(\\mu)} z_\\mu^{-1} p_\\mu`,
  and multiply out products by index concatenation.
* ``e -> s`` grows :math:`e_\\mu` one part at a time by the dual Pieri rule
  (:math:`s_\\lambda e_k` is the sum of :math:`s_\\nu` over the vertical
  k-strips :math:`\\nu/\\lambda`), so its coefficients are the Kostka numbers
  :math:`K_{\\lambda^t\\mu}` (Stanley, EC2 7.15; Macdonald I.5).
* ``s -> e`` expands the dual Jacobi-Trudi determinant
  :math:`s_\\lambda = \\det(e_{\\lambda^t_i - i + j})`.  It shares nothing with
  ``e -> s``, so a round trip through both checks one route against the other.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, lcm

from .partitions import Partition, partitions_of

#: refuse e -> p and e -> s transitions above this degree by default
DEFAULT_TRANSITION_CAP = 22


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
            clean[lam] = c
        self.basis = basis
        self.degree = degree
        self.terms = clean

    # ---------------------------------------------------------------- helpers

    @classmethod
    def zero(cls, basis, degree: int) -> "SymFunc":
        return cls(basis, degree, {})

    @classmethod
    def single(cls, basis, parts, coeff=1) -> "SymFunc":
        lam = Partition(parts)
        return cls(basis, lam.weight, {lam: Fraction(coeff)})

    @classmethod
    def one(cls, basis) -> "SymFunc":
        """The multiplicative unit: the empty-partition term in degree 0."""
        return cls(basis, 0, {Partition(): Fraction(1)})

    def coefficient(self, parts) -> Fraction:
        lam = Partition(parts)
        if lam.weight != self.degree:
            raise ValueError(
                f"partition {lam} has weight {lam.weight}, function has degree {self.degree}"
            )
        return self.terms.get(lam, Fraction(0))

    def support(self) -> list:
        """Basis partitions with nonzero coefficient, in canonical (desc-lex) order."""
        return sorted(self.terms, reverse=True)

    # ------------------------------------------------------------- arithmetic

    def _check_compatible(self, other):
        if self.basis is not other.basis:
            raise ValueError(f"basis mismatch: {self.basis.value} vs {other.basis.value}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for lam, c in other.terms.items():
            terms[lam] = terms.get(lam, Fraction(0)) + c
        return SymFunc(self.basis, self.degree, terms)

    def __sub__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SymFunc(self.basis, self.degree, {lam: -c for lam, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            self._check_compatible_product(other)
            terms = {}
            for lam, a in self.terms.items():
                for mu, b in other.terms.items():
                    key = Partition(tuple(lam) + tuple(mu))
                    terms[key] = terms.get(key, Fraction(0)) + a * b
            return SymFunc(self.basis, self.degree + other.degree, terms)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return SymFunc(self.basis, self.degree, {lam: v * c for lam, v in self.terms.items()})
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
        return False, (lam, self.terms[lam])

    def evaluate_ones(self, n: int) -> Fraction:
        """Specialize to n variables all equal to 1 (principal specialization at 1^n)."""
        if n < 0:
            raise ValueError("number of variables must be nonnegative")
        if self.basis is Basis.P:
            total = Fraction(0)
            for lam, c in self.terms.items():
                total += c * (n ** len(lam))
            return total
        if self.basis is Basis.E:
            total = Fraction(0)
            for lam, c in self.terms.items():
                val = 1
                for part in lam:
                    val *= comb(n, part)
                    if val == 0:
                        break
                total += c * val
            return total
        return s_to_e(self).evaluate_ones(n)

    # ---------------------------------------------------------- serialization

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis.value,
            "degree": self.degree,
            "terms": [
                {
                    "partition": list(lam),
                    "num": str(self.terms[lam].numerator),
                    "den": str(self.terms[lam].denominator),
                }
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
        if not self.terms:
            return "0"
        chunks = []
        for lam in self.support():
            c = self.terms[lam]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = f"{self.basis.value}{lam}" if mag == 1 else f"{mag}*{self.basis.value}{lam}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"SymFunc({self.basis.value!r}, {self.degree}, {self})"


# ----------------------------------------------------- per-index expansions
#
# Each expansion is a tuple of (index, coefficient) pairs.  Indices are plain
# weakly decreasing tuples, which hash and compare like the equal Partition;
# SymFunc turns them into Partitions once, when a conversion returns.


#: the expansion of an empty product
_ONE = (((), 1),)


def _merge(mu: tuple, nu: tuple) -> tuple:
    """The index of a product in a basis that multiplies by concatenation."""
    return tuple(sorted(mu + nu, reverse=True))


@lru_cache(maxsize=None)
def _power_in_e(i: int) -> tuple:
    """e-expansion of p_i by the signed multinomial formula (integer coefficients)."""
    out = []
    for mu in partitions_of(i):
        denom = 1
        for m in mu.multiplicities().values():
            denom *= factorial(m)
        out.append((mu, (-1) ** (i - len(mu)) * i * factorial(len(mu) - 1) // denom))
    return tuple(out)


@lru_cache(maxsize=None)
def _elementary_in_p(i: int) -> tuple:
    """p-expansion of e_i, the signed sum of p_mu / z_mu over mu |- i."""
    out = []
    for mu in partitions_of(i):
        z = 1
        for part, m in mu.multiplicities().items():
            z *= part**m * factorial(m)
        out.append((mu, Fraction((-1) ** (i - len(mu)), z)))
    return tuple(out)


@lru_cache(maxsize=None)
def _product(one_part, lam: tuple) -> tuple:
    """Expansion of prod_i b_{lam_i}, where ``one_part(i)`` expands b_i in a basis
    that multiplies by index concatenation; built on the product without the
    last part, so every prefix is expanded once."""
    if not lam:
        return _ONE
    acc = {}
    for mu, a in _product(one_part, lam[:-1]):
        for nu, b in one_part(lam[-1]):
            key = _merge(mu, nu)
            acc[key] = acc.get(key, 0) + a * b
    return tuple((key, c) for key, c in acc.items() if c)


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
def _elementary_in_s(mu: tuple) -> tuple:
    """s-expansion of e_mu: the Kostka numbers K_{lambda^t, mu}, as integers.

    e_mu = e_{mu minus its last part} * e_k, and by the dual Pieri rule
    s_lambda * e_k is the sum of s_nu over the vertical k-strips nu/lambda.
    """
    if not mu:
        return _ONE
    acc = {}
    for lam, c in _elementary_in_s(mu[:-1]):
        for nu in _vertical_strips(lam, mu[-1]):
            acc[nu] = acc.get(nu, 0) + c
    return tuple(acc.items())


@lru_cache(maxsize=None)
def _jacobi_trudi_dual(lam: Partition) -> tuple:
    """e-expansion of s_lambda via det(e_{lambda^t_i - i + j}), memoized cofactors.

    The determinant is expanded along rows over the surviving columns; entries
    e_0 contribute 1 and negative subscripts vanish.  Row i has a nonzero
    entry exactly in the columns j >= i - lambda^t_i, a bound that rises with
    i, so a minor is structurally zero as soon as its diagonal is, and the
    recursion stops there.
    """
    conj = lam.transpose()

    def entry(i, j):  # 0-based
        return conj[i] - (i + 1) + (j + 1)

    @lru_cache(maxsize=None)
    def minor(i: int, cols: tuple) -> tuple:
        if not cols:
            return _ONE
        if any(entry(i + k, j) < 0 for k, j in enumerate(cols)):
            return ()
        acc = {}
        for pos, j in enumerate(cols):
            v = entry(i, j)
            sign = -1 if pos & 1 else 1
            for mu, c in minor(i + 1, cols[:pos] + cols[pos + 1:]):
                key = _merge(mu, (v,)) if v else mu
                acc[key] = acc.get(key, 0) + sign * c
        return tuple((k, c) for k, c in acc.items() if c)

    return minor(0, tuple(range(len(conj))))


def schur_in_e(parts) -> SymFunc:
    """The Schur function s_lambda written in the elementary basis."""
    lam = Partition(parts)
    if not lam:
        raise ValueError("schur_in_e expects a nonempty partition")
    return SymFunc(Basis.E, lam.weight, dict(_jacobi_trudi_dual(lam)))


# ---------------------------------------------------------------- conversions


def _degree_guard(degree: int, max_degree) -> None:
    cap = DEFAULT_TRANSITION_CAP if max_degree is None else max_degree
    if degree > cap:
        raise ValueError(f"basis transitions guarded at degree {cap}, got {degree}")


def _apply(f: SymFunc, source: Basis, target: Basis, expand) -> SymFunc:
    """The linear map sending each ``source`` basis element b_lam to ``expand(lam)``.

    Coefficients are scaled to one common denominator, so the sums stay in
    integers wherever the expansion is integral.
    """
    if f.basis is not source:
        raise ValueError(f"expected a function in the {source.value} basis, got basis {f.basis.value}")
    den = lcm(*(c.denominator for c in f.terms.values()))
    terms = {}
    for lam, c in f.terms.items():
        a = c.numerator * (den // c.denominator)
        for mu, w in expand(lam):
            terms[mu] = terms.get(mu, 0) + a * w
    return SymFunc(target, f.degree, {mu: Fraction(v) / den for mu, v in terms.items()})


def p_to_e(f: SymFunc) -> SymFunc:
    """Convert from the power-sum basis to the elementary basis (exact)."""
    return _apply(f, Basis.P, Basis.E, partial(_product, _power_in_e))


def e_to_p(f: SymFunc, max_degree=None) -> SymFunc:
    """Convert from the elementary basis to the power-sum basis (exact)."""
    _degree_guard(f.degree, max_degree)
    return _apply(f, Basis.E, Basis.P, partial(_product, _elementary_in_p))


def e_to_s(f: SymFunc, max_degree=None) -> SymFunc:
    """Convert from the elementary basis to the Schur basis (exact).

    Each e_mu expands by the dual Pieri rule into Kostka numbers, which are
    nonnegative integers; nothing is shared with ``s_to_e``, so a round trip
    through both checks one route against the other.
    """
    _degree_guard(f.degree, max_degree)
    return _apply(f, Basis.E, Basis.S, _elementary_in_s)


def s_to_e(f: SymFunc) -> SymFunc:
    """Convert from the Schur basis to the elementary basis (exact)."""
    return _apply(f, Basis.S, Basis.E, _jacobi_trudi_dual)


def convert(f: SymFunc, basis, max_degree=None) -> SymFunc:
    """Convert ``f`` to the requested basis (identity when already there)."""
    target = Basis(basis)
    if f.basis is target:
        return f
    if f.basis is not Basis.E:  # every route passes through the e basis
        f = p_to_e(f) if f.basis is Basis.P else s_to_e(f)
    if target is Basis.E:
        return f
    return e_to_p(f, max_degree) if target is Basis.P else e_to_s(f, max_degree)
