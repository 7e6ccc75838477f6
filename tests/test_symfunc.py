import inspect
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import zip_longest
from math import comb, factorial, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_identities import CLI_CALLS
from test_partitions import coarsenings

import chromsym
from chromsym import identities, parse_graph_spec, symfunc
from chromsym.csf import _subset_counts, compute_csf, csf_path_closed, csf_subsets
from chromsym.partitions import DEFAULT_ENUMERATION_CAP, Partition, _count_keys, partitions_of
from chromsym.symfunc import (
    Basis,
    DEFAULT_TRANSITION_CAP,
    SymFunc,
    _elementary_in_p,
    _elementary_in_s,
    _nested,
    _power_in_e,
    _product,
    convert,
    e_to_p,
    e_to_s,
    p_to_e,
    s_to_e,
)

# ----------------------------------------------------------------- oracles
#
# Independent evaluation of p/e/s at explicit rational points: power sums by
# direct summation, elementaries from the coefficient product, Schur by the
# bialternant determinant ratio.  Exact throughout, nothing shared with the
# library's transition machinery.

POINTS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(5, 3), Fraction(7))


def det(matrix):
    m = [row[:] for row in matrix]
    n = len(m)
    sign = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    result = sign
    for i in range(n):
        result *= m[i][i]
    return result


def power_value(i, xs):
    return sum(x**i for x in xs)


def elementary_value(i, xs):
    if i > len(xs):
        return Fraction(0)
    coeffs = [Fraction(1)]
    for x in xs:
        coeffs = [a + x * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
    return coeffs[i]


def schur_value(lam, xs):
    n = len(xs)
    if len(lam) > n:
        return Fraction(0)
    padded = list(lam) + [0] * (n - len(lam))
    num = [[x ** (padded[j] + n - 1 - j) for j in range(n)] for x in xs]
    den = [[x ** (n - 1 - j) for j in range(n)] for x in xs]
    return det(num) / det(den)


def evaluate_at_points(f, xs):
    base = {Basis.P: power_value, Basis.E: elementary_value}[f.basis]
    total = Fraction(0)
    for lam, c in f.terms.items():
        prod = c
        for part in lam:
            prod *= base(part, xs)
        total += prod
    return total


# ------------------------------------------------------- reference e -> p
#
# The rational e -> p route that the integral tables replaced: e_i as the
# signed sum of p_mu / z_mu over mu |- i, and e_lam as the product of those
# sums, multiplied out term by term in Fractions.


@lru_cache(maxsize=None)
def reference_elementary_in_p(i):
    out = []
    for mu in partitions_of(i):
        z = 1
        for part, m in Counter(mu).items():
            z *= part**m * factorial(m)
        out.append((tuple(mu), Fraction((-1) ** (i - len(mu)), z)))
    return out


def reference_e_to_p(f):
    terms = {}
    for lam, c in f.terms.items():
        product = {(): c}
        for part in lam:
            grown = {}
            for mu, a in product.items():
                for nu, b in reference_elementary_in_p(part):
                    key = tuple(sorted(mu + nu, reverse=True))
                    grown[key] = grown.get(key, 0) + a * b
            product = grown
        for mu, a in product.items():
            terms[mu] = terms.get(mu, 0) + a
    return SymFunc(Basis.P, f.degree, terms)


# ------------------------------------------------ reference p -> e, e -> p
#
# The product route that nested evaluation replaced: each index expanded on
# its own as a product of one-part expansions, every prefix memoized (for the
# life of the memo, so tests clear it), indices as sorted tuples.


@lru_cache(maxsize=None)
def ref_product(one_part, lam: tuple) -> tuple:
    if not lam:
        return (((), 1),)
    acc = {}
    for mu, a in ref_product(one_part, lam[:-1]):
        for nu, b in one_part(lam[-1]):
            key = tuple(sorted(mu + nu, reverse=True))
            acc[key] = acc.get(key, 0) + a * b
    return tuple((key, c) for key, c in acc.items() if c)


def ref_apply(f, source, target, expand, weight=None, divisor=1):
    assert f.basis is source
    den = lcm(*(c.denominator for c in f.terms.values()))
    terms = {}
    for lam, c in f.terms.items():
        a = c.numerator * (den // c.denominator)
        if weight is not None:
            a *= weight(lam)
        for mu, w in expand(lam):
            terms[mu] = terms.get(mu, 0) + a * w
    den *= divisor
    exact = {Partition(mu): v // den if v % den == 0 else Fraction(v, den) for mu, v in terms.items()}
    return SymFunc._trusted(target, f.degree, exact)


def ref_nested(f, source, target, one_part, weight=None, divisor=1):
    """Reference for ``_nested``: the same Horner evaluation over a trie of
    index tuples.  A node is a prefix of an index without its 1s, folded into
    the prefix one part shorter in decreasing tuple order; the products are
    summed on ``_count_keys(f.degree)`` integers."""
    assert f.basis is source
    den = lcm(*(c.denominator for c in f.terms.values()))
    unit, decode = _count_keys(f.degree)
    sums = {(): {}}
    for lam, c in f.terms.items():
        a = c.numerator * (den // c.denominator)
        ones = lam.count(1)
        for j in range(len(lam) - ones + 1):
            node = sums.setdefault(lam[:j], {})
        node[unit[1] * ones if ones else 0] = a * weight(lam) if weight else a
    for lam in sorted(sums, reverse=True)[:-1]:  # the root () sorts last
        parent = sums[lam[:-1]]
        row = [(sum(map(unit.__getitem__, mu)), c) for mu, c in one_part(lam[-1])]
        for key, a in sums.pop(lam).items():
            for k, c in row:
                k += key
                parent[k] = parent.get(k, 0) + a * c
    den *= divisor
    exact = {Partition(decode(k)): v // den if v % den == 0 else Fraction(v, den) for k, v in sums[()].items()}
    return SymFunc._trusted(target, f.degree, exact)


def ref_nested_p_to_e(f):
    return ref_nested(f, Basis.P, Basis.E, ref_power_in_e)


def ref_nested_e_to_p(f):
    d = factorial(f.degree)
    return ref_nested(f, Basis.E, Basis.P, ref_elementary_in_p, lambda lam: d // prod(map(factorial, lam)), d)


def ref_multinomial(counts) -> int:
    out, total = 1, 0
    for c in counts:
        total += c
        out *= comb(total, c)
    return out


# The per-partition formulas that Newton's identities replaced, indices as
# sorted tuples: the reference the one-part ``_product`` rows are pinned to.


@lru_cache(maxsize=None)
def ref_power_in_e(i: int) -> tuple:
    """e-expansion of p_i by the signed multinomial formula:
    (-1)^(i - l(mu)) i (l(mu) - 1)! / prod_j m_j(mu)! over mu |- i."""
    return tuple(
        (mu, (-1) ** (i - len(mu)) * i * factorial(len(mu) - 1) // prod(map(factorial, Counter(mu).values())))
        for mu in map(tuple, partitions_of(i))
    )


@lru_cache(maxsize=None)
def ref_elementary_in_p(i: int) -> tuple:
    """p-expansion of i! e_i: (-1)^(i - l(mu)) i! / z_mu over mu |- i."""
    return tuple(
        (mu, (-1) ** (i - len(mu)) * factorial(i) // prod(p**m * factorial(m) for p, m in Counter(mu).items()))
        for mu in map(tuple, partitions_of(i))
    )


def ref_p_to_e(f):
    return ref_apply(f, Basis.P, Basis.E, partial(ref_product, ref_power_in_e))


def ref_e_to_p(f):
    return ref_apply(f, Basis.E, Basis.P, partial(ref_product, ref_elementary_in_p), ref_multinomial, factorial(f.degree))


@pytest.fixture
def ref_memo():
    yield
    ref_product.cache_clear()


def assert_same_output(got, want):
    """Equal as functions, and byte-equal as JSON and as text."""
    assert got == want
    assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())
    assert str(got) == str(want)


def random_function(rng, basis, degree, integral):
    """Up to 8 random terms over the partitions of ``degree``."""
    terms = {}
    for lam in rng.sample(partitions_of(degree), min(8, len(partitions_of(degree)))):
        c = rng.randint(-9, 9)
        terms[lam] = c if integral else Fraction(c, rng.randint(1, 12))
    return SymFunc(basis, degree, terms)


def grid_csfs(monkeypatch):
    """The distinct subset-oracle CSFs (p basis) of every identity grid at
    cap 14, with the oracle stubbed to a zero function while the grids run."""
    seen = {}

    def record(g):
        seen[g] = None
        return SymFunc(Basis.E, g.n, {})

    with monkeypatch.context() as m:
        m.setattr(identities, "_memo", record)
        for name in identities.VERIFIERS:
            identities.run_grid(name, 14)
    return list({identities._csf_key(f): f for f in map(csf_subsets, seen)}.values())


def cap_function():
    """A degree-22 e-function with integer and rational, positive and negative
    coefficients, from one-part to all-ones indices."""
    n = DEFAULT_TRANSITION_CAP
    return (
        SymFunc.single(Basis.E, (n,), 3)
        + SymFunc.single(Basis.E, (10, 7, 5), Fraction(-1, 2))
        + SymFunc.single(Basis.E, (6, 5, 4, 3, 2, 1, 1), Fraction(2, 3))
        + SymFunc.single(Basis.E, (4, 4, 3, 3, 2, 2, 2, 1, 1), 5)
        + SymFunc.single(Basis.E, (1,) * n, -1)
    )


def ssyt_count(shape, content) -> int:
    """The semistandard tableaux of ``shape`` with ``content[i]`` entries i,
    counted by brute force: the cells are filled in reading order, each with
    every entry left that is at least its left neighbour and more than the
    entry above it."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    grid, left = {}, list(content)

    def fill(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        total = 0
        for v in range(max(grid.get((r, c - 1), 0), grid.get((r - 1, c), -1) + 1), len(left)):
            if left[v]:
                left[v] -= 1
                grid[r, c] = v
                total += fill(i + 1)
                left[v] += 1
        return total

    return fill(0)


def ref_jacobi_trudi_dual(lam: tuple) -> tuple:
    """Reference for ``_jacobi_trudi_dual``: the same cofactor expansion of
    det(e_{lambda^t_i - i + j}) on tuple indices, each entry e_v merged into
    its minor's indices by sorting, e_0 leaving them as they are."""
    conj = Partition(lam).transpose()

    def entry(i, j):
        return conj[i] - i + j

    @lru_cache(maxsize=None)
    def minor(i: int, cols: tuple) -> tuple:
        if not cols:
            return (((), 1),)
        if any(entry(i + k, j) < 0 for k, j in enumerate(cols)):
            return ()
        acc = {}
        for pos, j in enumerate(cols):
            v = entry(i, j)
            for mu, c in minor(i + 1, cols[:pos] + cols[pos + 1:]):
                key = tuple(sorted(mu + (v,), reverse=True)) if v else mu
                acc[key] = acc.get(key, 0) + (-1) ** pos * c
        return tuple((key, c) for key, c in acc.items() if c)

    return minor(0, tuple(range(len(conj))))


def ref_s_to_e(f):
    return ref_apply(f, Basis.S, Basis.E, ref_jacobi_trudi_dual)


# ------------------------------------------------------------ construction


class TestConstruction:
    def test_single_and_coefficient(self):
        f = SymFunc.single(Basis.E, (2, 1), 3)
        assert f.degree == 3
        assert f.coefficient((2, 1)) == 3
        assert f.coefficient((3,)) == 0

    def test_zero_terms_dropped(self):
        f = SymFunc.single(Basis.E, (2,), 1) - SymFunc.single(Basis.E, (2,), 1)
        assert not f
        assert f.support() == []

    def test_mixed_degree_rejected(self):
        f = SymFunc.single(Basis.E, (2,), 1)
        g = SymFunc.single(Basis.E, (2, 1), 1)
        with pytest.raises(ValueError, match=r"^degree mismatch: 2 vs 3$"):
            f + g

    def test_mixed_basis_rejected(self):
        f = SymFunc.single(Basis.E, (2,), 1)
        g = SymFunc.single(Basis.P, (2,), 1)
        with pytest.raises(ValueError, match=r"^basis mismatch: e vs p$"):
            f + g

    def test_mixed_basis_product_rejected(self):
        e, p, s = (SymFunc.single(basis, (2,), 1) for basis in (Basis.E, Basis.P, Basis.S))
        with pytest.raises(ValueError, match=r"^basis mismatch: e vs p$"):
            e * p
        with pytest.raises(ValueError, match=r"^basis mismatch: s vs p$"):  # before the Schur refusal
            s * p

    def test_support_order_largest_first(self):
        f = (
            SymFunc.single(Basis.E, (1, 1, 1), 1)
            + SymFunc.single(Basis.E, (3,), 1)
            + SymFunc.single(Basis.E, (2, 1), 1)
        )
        assert f.support() == [(3,), (2, 1), (1, 1, 1)]

    def test_multiplication_concatenates_indices(self):
        f = SymFunc.single(Basis.P, (2,), 2)
        g = SymFunc.single(Basis.P, (3, 1), 5)
        assert (f * g).coefficient((3, 2, 1)) == 10

    def test_scalar_multiplication(self):
        f = SymFunc.single(Basis.E, (2, 1), Fraction(1, 2))
        assert (3 * f).coefficient((2, 1)) == Fraction(3, 2)
        assert (f * Fraction(2)).coefficient((2, 1)) == 1

    def test_schur_products_rejected(self):
        f = SymFunc.single(Basis.S, (1,), 1)
        with pytest.raises(ValueError, match=r"^products are supported in the p and e bases only$"):
            f * f

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SymFunc.single(Basis.E, (1,), 1))

    def test_str_format(self):
        f = SymFunc.single(Basis.E, (3,), 3) + SymFunc.single(Basis.E, (2, 1), -1)
        assert str(f) == "3*e[3] - e[2,1]"
        assert str(SymFunc(Basis.E, 3)) == "0"
        assert str(e_to_p(SymFunc.single(Basis.E, (2,), 1))) == "-1/2*p[2] + 1/2*p[1,1]"
        assert str(e_to_p(SymFunc.single(Basis.E, (3,), 1))) == "1/3*p[3] - 1/2*p[2,1] + 1/6*p[1,1,1]"
        assert str(SymFunc.single(Basis.E, (2,), Fraction(-3, 4))) == "-3/4*e[2]"
        neg = SymFunc.single(Basis.E, (3,), -1) + SymFunc.single(Basis.E, (2, 1), 2)
        assert str(neg) == "-e[3] + 2*e[2,1]"
        assert str(SymFunc.single(Basis.S, (2, 1), -1)) == "-s[2,1]"
        for c, text in [(1, "p[]"), (-1, "-p[]"), (5, "5*p[]"), (-5, "-5*p[]")]:
            assert str(SymFunc.single(Basis.P, (), c)) == text


def ref_mul(f, g):
    """Reference for ``SymFunc.__mul__`` in the p and e bases: every pair of
    indices merged by sorting their concatenation, on tuples, each
    coefficient summed as ``0 + a * b`` in the order the pairs are met."""
    terms = {}
    for lam, a in f.terms.items():
        for mu, b in g.terms.items():
            key = tuple(sorted(lam + mu, reverse=True))
            terms[key] = terms.get(key, 0) + a * b
    return {Partition(key): c for key, c in terms.items() if c}


@st.composite
def product_operand(draw, basis):
    """A p- or e-function of degree 0..70, with up to 5 terms whose indices
    are a few parts up to the degree padded with 1s, and ``int``, ``Fraction``
    or integral ``Fraction`` coefficients."""
    degree = draw(st.integers(0, 70))
    integral = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        parts = []
        for part in draw(st.lists(st.integers(1, max(degree, 1)), max_size=6)):
            if sum(parts) + part <= degree:
                parts.append(part)
        c = draw(st.integers(-9, 9))
        terms[(*parts, *(1,) * (degree - sum(parts)))] = c if integral else Fraction(c, draw(st.integers(1, 12)))
    f = SymFunc(basis, degree, terms)
    return f * Fraction(1) if draw(st.booleans()) else f  # integral Fractions stay Fractions


class TestProduct:
    """``SymFunc.__mul__`` on count keys against the tuple merge it replaced."""

    @staticmethod
    def check(f, g):
        out, want = f * g, ref_mul(f, g)
        assert (out.basis, out.degree) == (f.basis, f.degree + g.degree)
        assert out.terms == want
        assert {lam: type(c) for lam, c in out.terms.items()} == {lam: type(c) for lam, c in want.items()}

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from([Basis.P, Basis.E]).flatmap(lambda b: st.tuples(product_operand(b), product_operand(b))))
    def test_matches_the_tuple_merge(self, operands):
        self.check(*operands)

    @pytest.mark.parametrize("basis", [Basis.P, Basis.E])
    @pytest.mark.parametrize("degrees", [(0, 0), (0, 7), (30, 33), (30, 34), (1, 63), (64, 0), (70, 70)])
    def test_degrees_on_both_sides_of_63(self, basis, degrees):
        rng = random.Random(sum(degrees))
        f, g = (  # the indices k^(d // k) 1^(d % k), and () at degree 0
            SymFunc(basis, d, {(*(k,) * (d // k), *(1,) * (d % k)): rng.choice([rng.randint(1, 9), Fraction(rng.randint(-9, 9), 7)])
                               for k in range(1, max(min(d, 5), 1) + 1)})
            for d in degrees
        )
        self.check(f, g)
        self.check(g, f)
        self.check(f, SymFunc(basis, 5))  # the zero function
        self.check(f, SymFunc.single(basis, (), Fraction(3, 2)))

    def test_schur_operand_refused(self):
        f = SymFunc.single(Basis.S, (2, 1), 1)
        with pytest.raises(ValueError, match=r"^products are supported in the p and e bases only$"):
            f * SymFunc(Basis.S, 64)


class TestNonnegativity:
    def test_positive_function(self):
        f = SymFunc.single(Basis.E, (3,), 3) + SymFunc.single(Basis.E, (2, 1), 1)
        ok, witness = f.is_nonnegative()
        assert ok and witness is None

    def test_witness_is_smallest_negative_partition(self):
        f = (
            SymFunc.single(Basis.E, (4,), 1)
            + SymFunc.single(Basis.E, (3, 1), -2)
            + SymFunc.single(Basis.E, (2, 2), -5)
        )
        ok, witness = f.is_nonnegative()
        assert not ok
        assert witness == (Partition((2, 2)), Fraction(-5))

    def test_zero_function_nonnegative(self):
        ok, witness = SymFunc(Basis.E, 4).is_nonnegative()
        assert ok and witness is None


class TestEvaluateOnes:
    def test_power_basis(self):
        f = SymFunc.single(Basis.P, (3, 1), 1)
        assert f.evaluate_ones(4) == 16

    def test_elementary_basis(self):
        f = SymFunc.single(Basis.E, (2, 2), 1)
        assert f.evaluate_ones(4) == comb(4, 2) ** 2

    def test_agrees_across_bases(self):
        f = p_to_e(SymFunc.single(Basis.P, (3, 2, 1), 1) - 2 * SymFunc.single(Basis.P, (4, 2), 1))
        g = e_to_p(f)
        for n in range(0, 6):
            assert f.evaluate_ones(n) == g.evaluate_ones(n)
            assert e_to_s(f).evaluate_ones(n) == f.evaluate_ones(n)


# ------------------------------------------------------------- conversions


class TestPowerToElementary:
    def test_frozen_small_expansions(self):
        p2 = p_to_e(SymFunc.single(Basis.P, (2,), 1))
        assert p2.coefficient((1, 1)) == 1 and p2.coefficient((2,)) == -2
        p3 = p_to_e(SymFunc.single(Basis.P, (3,), 1))
        assert (
            p3.coefficient((1, 1, 1)) == 1
            and p3.coefficient((2, 1)) == -3
            and p3.coefficient((3,)) == 3
        )

    def test_matches_pointwise_oracle(self):
        for lam in [(1,), (2,), (3,), (2, 1), (2, 2), (3, 2, 1), (4, 1), (5,)]:
            f = SymFunc.single(Basis.P, lam, 1)
            assert evaluate_at_points(f, POINTS) == evaluate_at_points(p_to_e(f), POINTS), lam

    def test_support_refines_to_the_power_index(self):
        # [e_mu]p_lam != 0 implies mu refines to lam in the coarsening order
        for lam in partitions_of(7):
            f = p_to_e(SymFunc.single(Basis.P, lam, 1))
            for mu in f.support():
                assert lam in coarsenings(mu), (mu, lam)


class TestSchur:
    def test_frozen_small_schurs(self):
        assert s_to_e(SymFunc.single(Basis.S, (1, 1))).coefficient((2,)) == 1
        s2 = s_to_e(SymFunc.single(Basis.S, (2,)))
        assert s2.coefficient((1, 1)) == 1 and s2.coefficient((2,)) == -1
        s21 = s_to_e(SymFunc.single(Basis.S, (2, 1)))
        assert s21.coefficient((2, 1)) == 1 and s21.coefficient((3,)) == -1

    def test_column_shape_is_single_elementary(self):
        for k in range(1, 15):
            f = s_to_e(SymFunc.single(Basis.S, [1] * k))
            assert f.support() == [Partition((k,))]
            assert f.coefficient((k,)) == 1

    def test_matches_bialternant_oracle(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                f = s_to_e(SymFunc.single(Basis.S, lam))
                assert evaluate_at_points(f, POINTS) == schur_value(lam, POINTS), lam

    def test_matches_the_tuple_keyed_reference_up_to_degree_12(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                assert all(type(key) is int for key, _ in zip(*symfunc._jacobi_trudi_dual(lam))), lam
                schur = SymFunc.single(Basis.S, lam)
                assert_same_output(s_to_e(schur), ref_s_to_e(schur)), lam

    def test_dense_degree_14_matches_the_tuple_keyed_reference(self):
        f = SymFunc(Basis.S, 14, {lam: Fraction(i % 7 - 3, i % 5 + 1) for i, lam in enumerate(partitions_of(14))})
        assert_same_output(s_to_e(f), ref_s_to_e(f))

    def test_s_to_e_linear_combination(self):
        f = SymFunc.single(Basis.S, (2, 1), 2) + SymFunc.single(Basis.S, (1, 1, 1), -1)
        g = s_to_e(f)
        expected = 2 * s_to_e(SymFunc.single(Basis.S, (2, 1))) - s_to_e(SymFunc.single(Basis.S, (1, 1, 1)))
        assert g == expected


class TestElementaryExpansions:
    def test_e_to_s_kostka_nonnegative(self):
        # the transition e_mu -> schur basis has nonnegative integer entries
        for n in range(1, 9):
            for mu in partitions_of(n):
                f = e_to_s(SymFunc.single(Basis.E, mu, 1))
                for lam in f.support():
                    c = f.coefficient(lam)
                    assert c == int(c) and c >= 0, (mu, lam, c)

    def test_e_to_s_unit_triangular_entry(self):
        # [s_{lam^t}] e_lam = 1
        for n in range(1, 9):
            for lam in partitions_of(n):
                f = e_to_s(SymFunc.single(Basis.E, lam, 1))
                assert f.coefficient(lam.transpose()) == 1

    def test_e_to_s_counts_semistandard_tableaux(self):
        """[s_lam] e_mu = K_{lam^t, mu}, the number of semistandard tableaux of
        shape lam^t and content mu, counted by brute force: a third route,
        sharing nothing with either e -> s or s -> e."""
        for n in range(1, 8):
            for mu in partitions_of(n):
                kostka = {lam: ssyt_count(lam.transpose(), mu) for lam in partitions_of(n)}
                assert e_to_s(SymFunc.single(Basis.E, mu, 1)).terms == {lam: k for lam, k in kostka.items() if k}, mu

    def test_pieri_step_is_walked_once_per_shape_and_strip(self):
        """The dense degree-12 e -> s takes 3,508 dual Pieri steps over 333
        distinct (lambda, k), and walks the vertical strips of each once.
        The packed rows go with the memos, so every row is built again."""
        symfunc._pieri.cache_clear()
        symfunc._elementary_in_s.cache_clear()
        symfunc._met.clear()
        e_to_s(SymFunc(Basis.E, 12, dict.fromkeys(partitions_of(12), 1)))
        info = symfunc._pieri.cache_info()
        assert (info.misses, info.hits + info.misses) == (333, 3508)

    def test_pieri_step_matches_brute_force_vertical_strips(self):
        """The keys ``_pieri`` sums on its walk are those of every nu |- n + k
        that holds lambda and adds at most one box to each row, found by
        filtering all partitions of n + k, each once."""
        for n in range(11):
            for lam in partitions_of(n):
                key = sum(map(_count_keys(n)[0].__getitem__, lam))
                for k in range(5):
                    unit = _count_keys(n + k)[0]
                    want = [
                        sum(map(unit.__getitem__, nu))
                        for nu in partitions_of(n + k)
                        if all(0 <= a - b <= 1 for a, b in zip_longest(nu, lam, fillvalue=0))
                    ]
                    assert sorted(symfunc._pieri(key, n, k)) == sorted(want), (lam, k)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 10).flatmap(lambda n: st.sampled_from(partitions_of(n))),
        st.fractions(min_value=-5, max_value=5).filter(bool),
    )
    def test_round_trips_exact(self, lam, c):
        f = SymFunc.single(Basis.E, lam, c)
        assert p_to_e(e_to_p(f)) == f
        assert s_to_e(e_to_s(f)) == f

    def test_round_trip_dense_function(self):
        f = SymFunc(Basis.E, 8)
        for i, lam in enumerate(partitions_of(8)):
            f = f + SymFunc.single(Basis.E, lam, Fraction(i - 5, i + 1))
        assert p_to_e(e_to_p(f)) == f
        assert s_to_e(e_to_s(f)) == f

    def test_round_trips_every_elementary_up_to_degree_12(self):
        for n in range(1, 13):
            for mu in partitions_of(n):
                f = SymFunc.single(Basis.E, mu, 1)
                assert s_to_e(e_to_s(f)) == f, mu
                assert p_to_e(e_to_p(f)) == f, mu

    def test_round_trips_at_the_default_cap(self):
        f = cap_function()
        assert s_to_e(e_to_s(f)) == f
        assert p_to_e(e_to_p(f)) == f

    def test_e_to_p_matches_pointwise_oracle(self):
        f = SymFunc.single(Basis.E, (3, 2), 1)
        g = e_to_p(f)
        assert evaluate_at_points(f, POINTS) == evaluate_at_points(g, POINTS)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 12).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.dictionaries(
                    st.sampled_from(partitions_of(d)),
                    st.fractions(min_value=-5, max_value=5, max_denominator=12),
                    max_size=6,
                ),
            )
        )
    )
    def test_e_to_p_matches_the_rational_reference(self, case):
        f = SymFunc(Basis.E, *case)
        assert e_to_p(f) == reference_e_to_p(f)

    def test_e_to_p_at_the_default_cap_matches_the_rational_reference(self):
        f = cap_function()
        assert e_to_p(f).to_json_obj() == reference_e_to_p(f).to_json_obj()

    def test_elementary_table_is_integral(self, ref_memo):
        # sum_mu 1/z_mu = 1 and e_i(1) = 0 for i >= 2: a dropped sign or a
        # wrong z_mu breaks one of the two sums
        for i in range(1, DEFAULT_TRANSITION_CAP + 1):
            _, table = _product(_elementary_in_p, (i,), DEFAULT_TRANSITION_CAP.bit_length())
            assert all(type(c) is int for c in table), i
            assert sum(abs(c) for c in table) == factorial(i), i
            assert sum(table) == (1 if i == 1 else 0), i
        for lam in partitions_of(8):
            assert all(type(c) is int for _, c in ref_product(ref_elementary_in_p, tuple(lam))), lam


class TestNestedMatchesProducts:
    """p -> e and e -> p by nested evaluation against the product route kept above."""

    def test_every_grid_csf(self, monkeypatch, ref_memo):
        csfs = grid_csfs(monkeypatch)
        assert len(csfs) == 276
        for f in csfs:
            e = p_to_e(f)
            assert_same_output(e, ref_p_to_e(f))
            assert_same_output(e_to_p(e), ref_e_to_p(e))

    @pytest.mark.parametrize("degree", [*range(1, 19), 20, 22])
    def test_random_functions(self, degree, ref_memo):
        rng = random.Random(degree)
        for integral in (True, False):
            for _ in range(3):
                f = random_function(rng, Basis.P, degree, integral)
                assert_same_output(p_to_e(f), ref_p_to_e(f))
                f = random_function(rng, Basis.E, degree, integral)
                assert_same_output(e_to_p(f), ref_e_to_p(f))

    @pytest.mark.parametrize("degree", [63, 64])
    def test_key_width_grows_at_degree_64(self, degree, ref_memo):
        # 6 bits hold each count up to degree 63; degree 64 needs 7
        assert [_count_keys(n) is _count_keys(63) for n in range(degree + 1)] == [True] * 64 + [False] * (degree - 63)
        assert _count_keys(degree)[0][2] == 1 << degree.bit_length()
        half = degree // 2
        f = (
            SymFunc.single(Basis.P, (1,) * degree, 3)
            + SymFunc.single(Basis.P, (2,) * half + (1,) * (degree % 2), -1)
            + SymFunc.single(Basis.P, (4, 3) + (2,) * (half - 4) + (1,) * (degree % 2 + 1), Fraction(1, 2))
        )
        assert_same_output(p_to_e(f), ref_p_to_e(f))

    @pytest.mark.parametrize(
        "source, target, rule, reference",
        [(Basis.P, Basis.E, _power_in_e, ref_power_in_e), (Basis.E, Basis.P, _elementary_in_p, ref_elementary_in_p)],
        ids=["p-e", "e-p"],
    )
    def test_degree_64_names_only_the_keys_it_meets(self, source, target, rule, reference):
        """The output keys are named as they are met: degree 64 has about 1.7
        million partitions, and a few-term function still converts at once."""
        f = SymFunc(source, 64, {(1,) * 64: 3, (2,) * 32: -1, (4, 3) + (2,) * 28 + (1,): 2})
        unit, decode = _count_keys(64)
        table = {sum(map(unit.__getitem__, lam)): int(c) for lam, c in f.terms.items()}
        start = time.perf_counter()
        out = _nested(table, 64, target, rule, 1)
        assert time.perf_counter() - start < 1
        assert_same_output(out, ref_nested(f, source, target, reference))
        assert len(decode.__self__) < 10_000 and _count_keys(64)[1] == decode

    def test_many_parts_do_not_recurse(self):
        # the product route recursed once per part and raised RecursionError here
        f = SymFunc.single(Basis.P, (1,) * 1500)
        assert p_to_e(f) == SymFunc.single(Basis.E, (1,) * 1500)

    def test_degree_zero_and_zero_function(self):
        assert p_to_e(SymFunc.single(Basis.P, (), 5)) == SymFunc.single(Basis.E, (), 5)
        assert e_to_p(SymFunc.single(Basis.E, (), Fraction(1, 3))) == SymFunc.single(Basis.P, (), Fraction(1, 3))
        assert p_to_e(SymFunc(Basis.P, 7)) == SymFunc(Basis.E, 7)
        assert e_to_p(SymFunc(Basis.E, 7)) == SymFunc(Basis.P, 7)

    @pytest.mark.parametrize("degree", [*range(19), 20, 22])
    def test_count_key_trie_matches_the_tuple_trie(self, degree):
        rng = random.Random(1000 + degree)
        for integral in (True, False):
            for _ in range(3):
                f = random_function(rng, Basis.P, degree, integral)
                assert_same_output(p_to_e(f), ref_nested_p_to_e(f))
                f = random_function(rng, Basis.E, degree, integral)
                assert_same_output(e_to_p(f), ref_nested_e_to_p(f))
        assert_same_output(p_to_e(SymFunc(Basis.P, degree)), ref_nested_p_to_e(SymFunc(Basis.P, degree)))
        assert_same_output(e_to_p(SymFunc(Basis.E, degree)), ref_nested_e_to_p(SymFunc(Basis.E, degree)))

    def test_path_27_and_degree_40_union_match_the_closed_form(self):
        path = csf_path_closed(27)
        assert p_to_e(csf_subsets(parse_graph_spec("spider(13,13)").build())) == path
        union = csf_subsets(parse_graph_spec("union(spider(13,13),edges[13:])").build())
        assert p_to_e(union) == path * SymFunc.single(Basis.E, (1,) * 13)


def run_child(code: str, limit_mb: int = 0):
    """Run ``code`` in a fresh interpreter, under an address-space limit of
    ``limit_mb`` set in the child alone (none for 0); its exit status,
    standard output and standard error."""
    src = str(Path(chromsym.__file__).resolve().parent.parent)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))

    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit if limit_mb else None, capture_output=True, text=True,
    )
    return done.returncode, done.stdout, done.stderr


#: the child's own peak RSS in MB.  ``ru_maxrss`` would also count the pages of
#: the test process it was forked from, so the child reads its VmHWM instead.
PRINT_PEAK_MB = "\nprint(next(int(t.split()[1]) for t in open('/proc/self/status') if t.startswith('VmHWM')) / 1024)\n"


class TestNewtonRows:
    """The one-part rows of p -> e and e -> p, built by Newton's identities on
    count keys, against the per-partition formulas kept above."""

    @pytest.fixture
    def ref_rows(self):
        yield
        ref_power_in_e.cache_clear()
        ref_elementary_in_p.cache_clear()

    @pytest.mark.parametrize("width", range(1, 7))
    @pytest.mark.parametrize(
        "rule, reference, top",
        [
            (_power_in_e, ref_power_in_e, DEFAULT_ENUMERATION_CAP),
            (_elementary_in_p, ref_elementary_in_p, DEFAULT_TRANSITION_CAP),
        ],
        ids=["p-e", "e-p"],
    )
    def test_rows_match_the_partition_formulas(self, rule, reference, top, width, ref_rows):
        # every part whose counts fit width bits (n < 2**width), up to the
        # largest part its conversion takes
        for n in range(1, min(2**width - 1, top) + 1):
            want = {sum(1 << width * (part - 1) for part in mu): c for mu, c in reference(n)}
            assert dict(zip(*_product(rule, (n,), width))) == want, (n, width)

    def test_no_partition_is_enumerated(self):
        """p -> e and e -> p of a degree-14 CSF in a process whose partition
        enumeration raises give what this process computes."""
        f = compute_csf("spider(5,5,3)")[0]
        p = e_to_p(f)
        code = (
            "import json\n"
            "from chromsym import partitions\n"
            "from chromsym.symfunc import SymFunc, e_to_p, p_to_e\n"
            "def refuse(n):\n"
            "    raise AssertionError(f'the partitions of {n} were enumerated')\n"
            "partitions._partition_list = refuse\n"
            f"f = SymFunc.from_json_obj(json.loads({json.dumps(f.to_json_obj())!r}))\n"
            "p = e_to_p(f)\n"
            "print(json.dumps([p.to_json_obj(), p_to_e(p).to_json_obj()]))\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert out.strip() == json.dumps([p.to_json_obj(), p_to_e(p).to_json_obj()])
        assert p_to_e(p) == f

    def test_degrees_on_both_sides_of_16_share_their_rows(self):
        """e -> p at degree 14 and then at degree 17 keep each shared Newton
        row once, on the one key table of both degrees: 18 ``_product``
        entries, the empty row and the one-part rows of parts 1 to 17."""
        code = (
            "from chromsym import symfunc\n"
            "from chromsym.csf import compute_csf\n"
            "symfunc.e_to_p(compute_csf('spider(5,5,3)')[0])\n"
            "symfunc.e_to_p(compute_csf('spider(6,5,5)')[0])\n"
            "print(symfunc._product.cache_info().currsize)\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert out.strip() == "18"

    @pytest.mark.parametrize("there, back", [(e_to_p, p_to_e), (e_to_s, s_to_e)], ids=["p", "s"])
    def test_a_closed_form_and_its_round_trip_share_each_partition(self, there, back):
        # the closed forms and the conversions name keys by one pass, one dict
        f = compute_csf("tadpole(5,4)")[0]
        named = {lam: lam for lam in f.terms}
        g = back(there(f))
        assert g == f and all(named[lam] is lam for lam in g.terms)


#: the graph each ``CLI_CALLS`` argv of a ``verify`` identity on numbers
#: reads; every other call names its graph as its last spec argument
VERIFY_GRAPHS = {
    "verify cdumbbell-recursion 4,2,6": "cdumbbell(4,2,6)",
    "verify dumbbell-recursion 4,3,7": "dumbbell(4,3,7)",
    "verify small-sun-coefficient 4,3,3": "sun(3;4,3,3)",
}


def packed_sample() -> list:
    """e-functions that reach every branch of the packed route: the CSFs of
    the graphs of the 18 ``CLI_CALLS`` (by the subset DP alone, which has no
    edge cap, so ``line(cdumbbell(4,0,4))`` has one too), degrees 0 and 1,
    zero functions at a new and a met degree, denominators up to 10**12, and
    coefficients at the edges of fields of one, two and four 64-bit words."""
    graphs = [VERIFY_GRAPHS.get(call) or next(w for w in reversed(call.split()) if "(" in w) for call in CLI_CALLS]
    csfs = {}
    for spec in graphs:
        g = parse_graph_spec(spec).build()
        csfs.setdefault(spec, _nested(_subset_counts(g.n, g.edge_list), g.n, Basis.E, _power_in_e, 1))
    spider = csfs["spider(4,4,3)"]
    edges = [sign * c for c in (2**63 - 1, 2**63, 2**127, 2**191 - 1, 2**191) for sign in (1, -1)]
    return [
        *csfs.values(),
        SymFunc.single(Basis.E, (), 5),
        SymFunc.single(Basis.E, (), Fraction(-2, 7)),
        SymFunc.single(Basis.E, (1,), -3),
        SymFunc.single(Basis.E, (1,), Fraction(10**12 - 1, 10**12)),
        SymFunc(Basis.E, 9),
        SymFunc(Basis.E, 11),
        spider * Fraction(7, 10**12 - 11),
        spider + SymFunc.single(Basis.E, (5, 4, 3), Fraction(-1, 10**12)),
        *(SymFunc.single(Basis.E, (1,), c) for c in edges),
        *(spider + SymFunc.single(Basis.E, (6, 4, 2), c) for c in edges),
    ]


class TestPackedRoute:
    """Every e -> s and s -> e, and every e -> p and p -> e after a degree's
    first (p -> e up to ``DEFAULT_TRANSITION_CAP``), is one sum of packed
    rows; its output is byte for byte that of the references."""

    def test_a_later_e_to_p_runs_no_nested_evaluation(self, monkeypatch):
        f = compute_csf("spider(4,4,3)")[0]
        want = e_to_p(f)

        def refuse(*args):
            raise AssertionError("nested evaluation ran")

        monkeypatch.setattr(symfunc, "_nested", refuse)
        assert_same_output(e_to_p(f), want)

    def test_a_later_p_to_e_runs_no_nested_evaluation(self, monkeypatch):
        """Through ``p_to_e`` and through the CSF oracle of ``compute_csf``,
        which share one record per degree."""
        g = parse_graph_spec("spider(4,4,3)").build()
        p = csf_subsets(g)
        want = p_to_e(p)

        def refuse(*args):
            raise AssertionError("nested evaluation ran")

        monkeypatch.setattr(symfunc, "_nested", refuse)
        assert_same_output(p_to_e(p), want)
        got, engine = compute_csf(g)
        assert engine == "subsets"
        assert_same_output(got, want)

    def test_a_first_p_to_e_at_a_degree_runs_nested_evaluation(self):
        """In a fresh process the first p -> e at a degree, here the CSF
        oracle's, runs ``_nested`` and no ``_packed``, and the next one there,
        by ``p_to_e``, packs."""
        code = (
            "from chromsym import csf, parse_graph_spec, symfunc\n"
            "calls = []\n"
            "for name in ('_nested', '_packed'):\n"
            "    def counted(*args, _name=name, _run=getattr(symfunc, name)):\n"
            "        calls.append(_name)\n"
            "        return _run(*args)\n"
            "    setattr(symfunc, name, counted)\n"
            "g = parse_graph_spec('spider(4,4,3)').build()\n"
            "first = csf.compute_csf(g)[0]\n"
            "print(calls)\n"
            "calls.clear()\n"
            "assert symfunc.p_to_e(csf.csf_subsets(g)) == first\n"
            "print(calls)\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert out.splitlines() == ["['_nested']", "['_packed']"]

    def test_a_p_to_e_above_the_transition_cap_stays_nested(self, monkeypatch):
        """Above ``DEFAULT_TRANSITION_CAP`` a record would hold p(d)^2 fields:
        every p -> e there, the oracle's too, is nested and records nothing."""
        degree = DEFAULT_TRANSITION_CAP + 1
        g = parse_graph_spec(f"spider({degree - 2},1)").build()
        p = csf_subsets(g)

        def refuse(*args):
            raise AssertionError("packed rows were summed")

        monkeypatch.setattr(symfunc, "_packed", refuse)
        want = ref_nested_p_to_e(p)
        for _ in range(2):
            assert_same_output(p_to_e(p), want)
            assert_same_output(compute_csf(g)[0], want)
        assert (Basis.P, Basis.E, degree) not in symfunc._met

    def test_s_to_e_and_p_to_e_at_one_degree_keep_their_own_rows(self, tmp_path):
        """Both target e: in a fresh process each direction has its own record,
        so the first p -> e after an s -> e at its degree is nested, the
        second packs, and each output equals its reference."""
        csf = compute_csf("spider(4,4,3)")[0]
        s, p = SymFunc(Basis.S, csf.degree, csf.terms), SymFunc(Basis.P, csf.degree, csf.terms)
        path = tmp_path / "sample.json"
        path.write_text(json.dumps([s.to_json_obj(), p.to_json_obj()]))
        code = (
            "import json\n"
            "from chromsym import symfunc\n"
            "from chromsym.symfunc import SymFunc, p_to_e, s_to_e\n"
            "nested, calls = symfunc._nested, []\n"
            "def counted(*args):\n"
            "    calls.append('_nested')\n"
            "    return nested(*args)\n"
            "symfunc._nested = counted\n"
            f"s, p = map(SymFunc.from_json_obj, json.loads(open({str(path)!r}).read()))\n"
            "out = []\n"
            "for f, convert in ((s, s_to_e), (p, p_to_e), (s, s_to_e), (p, p_to_e)):\n"
            "    calls.clear()\n"
            "    g = convert(f)\n"
            "    out.append([json.dumps(g.to_json_obj()), str(g), len(calls)])\n"
            "print(json.dumps(out))\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        want = [[json.dumps(g.to_json_obj()), str(g)] for g in (ref_s_to_e(s), ref_nested_p_to_e(p))]
        assert json.loads(out) == [want[0] + [0], want[1] + [1], want[0] + [0], want[1] + [0]]

    @pytest.mark.parametrize(
        "source, convert, rows", [("e", "e_to_s", "_elementary_in_s"), ("s", "s_to_e", "_jacobi_trudi_dual")]
    )
    def test_a_schur_conversion_reads_each_row_once(self, source, convert, rows):
        """In a fresh process, the first conversion packs every row it meets,
        so a second of the same function reads no row."""
        code = (
            "from chromsym import compute_csf, symfunc\n"
            "from chromsym.symfunc import Basis, SymFunc\n"
            "f = compute_csf('spider(4,4,3)')[0]\n"
            f"f, convert = SymFunc({source!r}, f.degree, f.terms), symfunc.{convert}\n"
            "want = convert(f)\n"
            "def refuse(*args):\n"
            "    raise AssertionError('a row was read again')\n"
            f"symfunc.{rows} = refuse\n"
            "got = convert(f)\n"
            "assert (got.to_json_obj(), str(got)) == (want.to_json_obj(), str(want))\n"
        )
        status, _, err = run_child(code)
        assert status == 0, err

    def test_a_first_e_to_p_at_a_degree_runs_nested_evaluation(self):
        """The one fork left: a fresh process's first e -> p at a degree runs
        ``_nested`` and no ``_packed``, and its second packs, reading the row
        of each index once."""
        code = (
            "from chromsym import compute_csf, symfunc\n"
            "calls = []\n"
            "for name in ('_nested', '_packed', '_elementary_row'):\n"
            "    def counted(*args, _name=name, _run=getattr(symfunc, name)):\n"
            "        calls.append(_name)\n"
            "        return _run(*args)\n"
            "    setattr(symfunc, name, counted)\n"
            "f = compute_csf('spider(4,4,3)')[0]\n"
            "calls.clear()\n"
            "first = symfunc.e_to_p(f)\n"
            "print(calls)\n"
            "calls.clear()\n"
            "assert symfunc.e_to_p(f) == first\n"
            "print(calls)\n"
            "print(len(f.terms))\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        first, second, indices = out.splitlines()
        assert first == "['_nested']"
        assert second == str(["_packed"] + ["_elementary_row"] * int(indices))

    def test_both_routes_match_the_references_byte_for_byte(self, tmp_path):
        """In a fresh process, so that no degree is met yet, the sample goes
        twice through each conversion: e -> p and p -> e run nested evaluation
        on their first pass once per degree and pack the rest, e -> s and
        s -> e pack all on both passes, and each output equals its reference."""
        sample = packed_sample()
        path = tmp_path / "sample.json"
        path.write_text(json.dumps([f.to_json_obj() for f in sample]))
        code = (
            "import json\n"
            "from chromsym import symfunc\n"
            "from chromsym.symfunc import SymFunc, e_to_p, e_to_s, p_to_e, s_to_e\n"
            "packed, calls = symfunc._packed, []\n"
            "def counted(f, *args):\n"
            "    calls.append(f)\n"
            "    return packed(f, *args)\n"
            "symfunc._packed = counted\n"
            f"sample = json.loads(open({str(path)!r}).read())\n"
            "out = {}\n"
            "for source, convert in (('e', e_to_p), ('e', e_to_s), ('s', s_to_e), ('p', p_to_e)):\n"
            "    fs = [SymFunc.from_json_obj({**obj, 'basis': source}) for obj in sample]\n"
            "    for run in range(2):\n"
            "        calls.clear()\n"
            "        got = [[json.dumps(g.to_json_obj()), str(g)] for g in map(convert, fs)]\n"
            "        out[f'{convert.__name__} {run}'] = got, len(calls)\n"
            "print(json.dumps(out))\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        out = json.loads(out)
        schur = [SymFunc(Basis.S, f.degree, f.terms) for f in sample]
        power = [SymFunc(Basis.P, f.degree, f.terms) for f in sample]
        decode = lambda lam: [(_count_keys(sum(lam))[1](key), c) for key, c in zip(*_elementary_in_s(lam))]
        references = {
            "e_to_p": map(ref_nested_e_to_p, sample),
            "e_to_s": (ref_apply(f, Basis.E, Basis.S, decode) for f in sample),
            "s_to_e": map(ref_s_to_e, schur),
            "p_to_e": map(ref_nested_p_to_e, power),
        }
        degrees = len({f.degree for f in sample})
        firsts = {"e_to_p": degrees, "e_to_s": 0, "s_to_e": 0, "p_to_e": degrees}
        for name, want in references.items():
            want = [[json.dumps(g.to_json_obj()), str(g)] for g in want]
            assert out[f"{name} 0"] == [want, len(sample) - firsts[name]], name
            assert out[f"{name} 1"] == [want, len(sample)], name

    @pytest.mark.parametrize("scale", [1, Fraction(2)])
    def test_no_conversion_changes_or_returns_its_input_terms(self, monkeypatch, scale):
        """Each conversion leaves its input's ``terms`` as they were, keys,
        values and value types, returns a dict of its own, and equals its
        reference byte for byte: for ``spider(4,4,3)``'s all-``int`` CSF, and
        for it times ``Fraction(2)``, whose terms are ``Fraction(n, 1)``."""
        monkeypatch.setattr(symfunc, "_met", {})  # so the first e -> p at the degree is nested
        csf = compute_csf("spider(4,4,3)")[0]
        e, s, p = (SymFunc(basis, csf.degree, csf.terms) * scale for basis in (Basis.E, Basis.S, Basis.P))
        assert {type(c) for c in e.terms.values()} == {type(scale)}
        decode = lambda lam: [(_count_keys(sum(lam))[1](key), c) for key, c in zip(*_elementary_in_s(lam))]
        e_in_p = ref_nested_e_to_p(e)
        cases = [
            (e, e_to_p, e_in_p),  # nested evaluation
            (e, e_to_p, e_in_p),  # packed
            (e, e_to_s, ref_apply(e, Basis.E, Basis.S, decode)),
            (s, s_to_e, ref_s_to_e(s)),
            (p, p_to_e, ref_nested_p_to_e(p)),
            (e, partial(convert, basis=Basis.P), e_in_p),
            (s, partial(convert, basis=Basis.P), ref_nested_e_to_p(ref_s_to_e(s))),
            (p, partial(convert, basis=Basis.S), ref_apply(ref_nested_p_to_e(p), Basis.E, Basis.S, decode)),
        ]
        for f, conversion, want in cases:
            before = [(lam, c, type(c)) for lam, c in f.terms.items()]
            got = conversion(f)
            assert [(lam, c, type(c)) for lam, c in f.terms.items()] == before
            assert got.terms is not f.terms
            assert_same_output(got, want)


class TestMemory:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_round_trip_at_the_cap_alone(self):
        code = (
            "from fractions import Fraction\n"
            "from chromsym.symfunc import Basis, DEFAULT_TRANSITION_CAP, SymFunc, e_to_p, e_to_s, p_to_e, s_to_e\n"
            + inspect.getsource(cap_function)
            + "f = cap_function()\nassert s_to_e(e_to_s(f)) == f and p_to_e(e_to_p(f)) == f"
            + PRINT_PEAK_MB
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert float(out) < 110  # 24 MB; 213 MB with the product route's prefix memo

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_packed_e_to_p_at_the_cap(self):
        """The packed route's worst case: three CSFs of degree 22 with many
        distinct large parts, each after the first building and packing a
        row per index."""
        specs = ["tadpole(12,10)", "dumbbell(6,3,13)", "spider(7,7,7)"]
        code = (
            "from chromsym import compute_csf\n"
            "from chromsym.symfunc import e_to_p, p_to_e\n"
            f"fs = [compute_csf(spec)[0] for spec in {specs!r}]\n"
            "ps = [e_to_p(f) for f in fs]\n"
            + PRINT_PEAK_MB
            + "assert all(p_to_e(p) == f for p, f in zip(ps, fs))\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert float(out) < 64  # 42 MB; 17 MB with nested evaluation alone

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_packed_p_to_e_at_the_cap(self):
        """The same worst case for p -> e: the e -> p outputs of those three
        CSFs back to e, each after the first packing a row per index."""
        specs = ["tadpole(12,10)", "dumbbell(6,3,13)", "spider(7,7,7)"]
        code = (
            "from chromsym import compute_csf\n"
            "from chromsym.symfunc import e_to_p, p_to_e\n"
            f"fs = [compute_csf(spec)[0] for spec in {specs!r}]\n"
            "ps = [e_to_p(f) for f in fs]\n"
            "assert all(p_to_e(p) == f for p, f in zip(ps, fs))\n"
            + PRINT_PEAK_MB
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert float(out) < 96  # 64 MB; 42 MB with nested p -> e alone

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_dense_e_to_s_below_the_cap(self):
        """Every e_mu, mu |- 20, at coefficient 1: the e -> s memo keeps its
        2,714 rows as parallel key and coefficient tuples beside the packed
        ones."""
        code = (
            "from chromsym.partitions import partitions_of\n"
            "from chromsym.symfunc import Basis, SymFunc, e_to_s\n"
            "e_to_s(SymFunc(Basis.E, 20, dict.fromkeys(partitions_of(20), 1)))\n"
            + PRINT_PEAK_MB
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert float(out) < 40  # 31 MB; 52 MB with the rows as tuples of pairs

    def test_an_s_to_e_leaves_no_minor_to_the_cyclic_collector(self):
        """``_jacobi_trudi_dual``'s per-call memo refers to itself, and is
        freed before the row is returned: with the collector off, one s -> e
        of a fresh degree-14 Schur function adds only its output, its record
        and the names and formats it meets."""
        code = (
            "import gc\n"
            "gc.disable()\n"
            "from chromsym import compute_csf\n"
            "from chromsym.symfunc import e_to_s, s_to_e\n"
            "f = e_to_s(compute_csf('spider(5,5,3)')[0])\n"
            "before = len(gc.get_objects())\n"
            "s_to_e(f)\n"
            "print(len(gc.get_objects()) - before)\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert int(out) < 100  # 27; 25,683 with every row's minors left behind

    def test_a_part_above_the_cap_is_refused_before_the_keys_are_built(self):
        # the keys of degree 10,000 peaked at about 94 MB when each degree
        # built every unit; p_(1^10000) and s_(1^5000) have no such part and
        # still convert
        code = (
            "import tracemalloc\n"
            "from chromsym.symfunc import Basis, SymFunc, p_to_e, s_to_e\n"
            "tracemalloc.start()\n"
            "try:\n"
            "    p_to_e(SymFunc.single(Basis.P, (10000,)))\n"
            "except ValueError as error:\n"
            "    print(error)\n"
            "print(tracemalloc.get_traced_memory()[1] / 2**20)\n"
            "tracemalloc.stop()\n"
            "assert p_to_e(SymFunc.single(Basis.P, (1,) * 10000)) == SymFunc.single(Basis.E, (1,) * 10000)\n"
            "assert s_to_e(SymFunc.single(Basis.S, (1,) * 5000)) == SymFunc.single(Basis.E, (5000,))\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        message, peak = out.splitlines()
        assert message == "partitions_of(10000) exceeds the enumeration cap 40"
        assert float(peak) < 5

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_a_degree_above_63_builds_only_the_units_it_reads(self):
        """Many small parts at a large degree: each key unit is built when
        first read, where every degree above 63 once built all n of them."""
        code = (
            "from chromsym.symfunc import Basis, SymFunc, p_to_e, s_to_e\n"
            "assert p_to_e(SymFunc.single(Basis.P, (1,) * 10000)) == SymFunc.single(Basis.E, (1,) * 10000)\n"
            "assert s_to_e(SymFunc.single(Basis.S, (1,) * 5000)) == SymFunc.single(Basis.E, (5000,))\n"
            "p = SymFunc.single(Basis.P, (1,) * 5000) * SymFunc.single(Basis.P, (2,))\n"
            "assert p == SymFunc.single(Basis.P, (2,) + (1,) * 5000)\n"
            + PRINT_PEAK_MB
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert float(out) < 40  # 15 MB; 104 MB with every unit built up front
        code = (
            "from chromsym.partitions import _count_keys\n"
            "from chromsym.symfunc import Basis, SymFunc, p_to_e\n"
            "p_to_e(SymFunc.single(Basis.P, (1,) * 100))\n"
            "print(len(_count_keys(100)[0]))\n"
        )
        status, out, err = run_child(code)
        assert status == 0, err
        assert int(out) <= 3  # unit[0], unit[1] and unit[2], of 101

    def test_degree_40_union_under_one_gigabyte(self):
        code = "from chromsym.cli import main\nassert main(['csf', 'union(spider(13,13),edges[13:])']) == 0\n"
        status, _, err = run_child(code, limit_mb=1024)
        assert status == 0, err


class TestConvertRouting:
    def test_identity_routes(self):
        f = SymFunc.single(Basis.E, (2, 1), 1)
        assert convert(f, Basis.E) is f

    def test_all_routes_consistent(self):
        f = p_to_e(SymFunc.single(Basis.P, (3, 2), 1))
        via_p = convert(convert(f, Basis.P), Basis.S)
        direct = convert(f, Basis.S)
        assert via_p == direct

    def test_degree_guard(self, monkeypatch):
        f = SymFunc.single(Basis.E, (DEFAULT_TRANSITION_CAP + 1,), 1)
        with pytest.raises(ValueError):
            e_to_s(f)
        with pytest.raises(ValueError):
            e_to_p(f)

        def first_leg(f):
            raise AssertionError("the first leg ran before the guard")

        # s -> p and p -> s go through e; the guard refuses them before that leg
        monkeypatch.setattr(symfunc, "s_to_e", first_leg)
        monkeypatch.setattr(symfunc, "p_to_e", first_leg)
        for source, target in ((Basis.S, Basis.P), (Basis.P, Basis.S)):
            with pytest.raises(ValueError, match="guarded"):
                convert(SymFunc.single(source, (DEFAULT_TRANSITION_CAP + 1,), 1), target)


class TestJson:
    def test_round_trip(self):
        f = p_to_e(SymFunc.single(Basis.P, (3, 1), 1)) + SymFunc.single(Basis.E, (2, 2), Fraction(1, 3))
        blob = json.dumps(f.to_json_obj())
        assert SymFunc.from_json_obj(json.loads(blob)) == f

    def test_terms_sorted_largest_first(self):
        f = SymFunc.single(Basis.E, (1, 1), 1) + SymFunc.single(Basis.E, (2,), 1)
        obj = f.to_json_obj()
        assert [t["partition"] for t in obj["terms"]] == [[2], [1, 1]]

    def test_rationals_as_strings(self):
        obj = SymFunc.single(Basis.E, (2,), Fraction(-1, 3)).to_json_obj()
        assert obj["terms"][0]["num"] == "-1"
        assert obj["terms"][0]["den"] == "3"
