import inspect
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chromsym
from chromsym import identities, parse_graph_spec, symfunc
from chromsym.csf import csf_path_closed, csf_subsets
from chromsym.partitions import Partition, _count_keys, partitions_of
from chromsym.symfunc import (
    Basis,
    DEFAULT_TRANSITION_CAP,
    SymFunc,
    _elementary_in_p,
    _nested,
    _power_in_e,
    convert,
    e_to_p,
    e_to_s,
    p_to_e,
    s_to_e,
    schur_in_e,
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
        for part, m in mu.multiplicities().items():
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


ref_power_in_e = lru_cache(maxsize=None)(_power_in_e)
ref_elementary_in_p = lru_cache(maxsize=None)(_elementary_in_p)


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
        with pytest.raises(ValueError):
            f + g

    def test_mixed_basis_rejected(self):
        f = SymFunc.single(Basis.E, (2,), 1)
        g = SymFunc.single(Basis.P, (2,), 1)
        with pytest.raises(ValueError):
            f + g

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
        with pytest.raises(ValueError):
            f * f

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SymFunc.single(Basis.E, (1,), 1))

    def test_str_format(self):
        f = SymFunc.single(Basis.E, (3,), 3) + SymFunc.single(Basis.E, (2, 1), -1)
        assert str(f) == "3*e[3] - e[2,1]"
        assert str(SymFunc.zero(Basis.E, 3)) == "0"
        assert str(e_to_p(SymFunc.single(Basis.E, (2,), 1))) == "-1/2*p[2] + 1/2*p[1,1]"
        assert str(e_to_p(SymFunc.single(Basis.E, (3,), 1))) == "1/3*p[3] - 1/2*p[2,1] + 1/6*p[1,1,1]"
        assert str(SymFunc.single(Basis.E, (2,), Fraction(-3, 4))) == "-3/4*e[2]"
        neg = SymFunc.single(Basis.E, (3,), -1) + SymFunc.single(Basis.E, (2, 1), 2)
        assert str(neg) == "-e[3] + 2*e[2,1]"
        assert str(SymFunc.single(Basis.S, (2, 1), -1)) == "-s[2,1]"
        for c, text in [(1, "p[]"), (-1, "-p[]"), (5, "5*p[]"), (-5, "-5*p[]")]:
            assert str(SymFunc.single(Basis.P, (), c)) == text


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
        ok, witness = SymFunc.zero(Basis.E, 4).is_nonnegative()
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
        from chromsym.partitions import refines_to

        for lam in partitions_of(7):
            f = p_to_e(SymFunc.single(Basis.P, lam, 1))
            for mu in f.support():
                assert refines_to(mu, lam), (mu, lam)


class TestSchur:
    def test_frozen_small_schurs(self):
        assert schur_in_e((1, 1)).coefficient((2,)) == 1
        s2 = schur_in_e((2,))
        assert s2.coefficient((1, 1)) == 1 and s2.coefficient((2,)) == -1
        s21 = schur_in_e((2, 1))
        assert s21.coefficient((2, 1)) == 1 and s21.coefficient((3,)) == -1

    def test_column_shape_is_single_elementary(self):
        for k in range(1, 15):
            f = schur_in_e([1] * k)
            assert f.support() == [Partition((k,))]
            assert f.coefficient((k,)) == 1

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            schur_in_e(())

    def test_matches_bialternant_oracle(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                f = schur_in_e(lam)
                assert evaluate_at_points(f, POINTS) == schur_value(lam, POINTS), lam

    def test_matches_the_tuple_keyed_reference_up_to_degree_12(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                assert all(type(key) is int for key, _ in symfunc._jacobi_trudi_dual(lam)), lam
                assert_same_output(schur_in_e(lam), ref_s_to_e(SymFunc.single(Basis.S, lam))), lam

    def test_dense_degree_14_matches_the_tuple_keyed_reference(self):
        f = SymFunc(Basis.S, 14, {lam: Fraction(i % 7 - 3, i % 5 + 1) for i, lam in enumerate(partitions_of(14))})
        assert_same_output(s_to_e(f), ref_s_to_e(f))

    def test_s_to_e_linear_combination(self):
        f = SymFunc.single(Basis.S, (2, 1), 2) + SymFunc.single(Basis.S, (1, 1, 1), -1)
        g = s_to_e(f)
        expected = 2 * schur_in_e((2, 1)) - schur_in_e((1, 1, 1))
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
        distinct (lambda, k), and walks the vertical strips of each once."""
        symfunc._pieri.cache_clear()
        symfunc._elementary_in_s.cache_clear()
        e_to_s(SymFunc(Basis.E, 12, dict.fromkeys(partitions_of(12), 1)))
        info = symfunc._pieri.cache_info()
        assert (info.misses, info.hits + info.misses) == (333, 3508)

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
        f = SymFunc.zero(Basis.E, 8)
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
            table = _elementary_in_p(i)
            assert all(type(c) is int for _, c in table), i
            assert sum(abs(c) for _, c in table) == factorial(i), i
            assert sum(c for _, c in table) == (1 if i == 1 else 0), i
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
        half = degree // 2
        f = (
            SymFunc.single(Basis.P, (1,) * degree, 3)
            + SymFunc.single(Basis.P, (2,) * half + (1,) * (degree % 2), -1)
            + SymFunc.single(Basis.P, (4, 3) + (2,) * (half - 4) + (1,) * (degree % 2 + 1), Fraction(1, 2))
        )
        assert_same_output(p_to_e(f), ref_p_to_e(f))

    @pytest.mark.parametrize(
        "source, target, one_part", [(Basis.P, Basis.E, _power_in_e), (Basis.E, Basis.P, _elementary_in_p)], ids=["p-e", "e-p"]
    )
    def test_degree_64_names_only_the_keys_it_meets(self, source, target, one_part):
        """The output keys are named as they are met: degree 64 has about 1.7
        million partitions, and a few-term function still converts at once."""
        f = SymFunc(source, 64, {(1,) * 64: 3, (2,) * 32: -1, (4, 3) + (2,) * 28 + (1,): 2})
        unit, decode = _count_keys(64)
        table = {sum(map(unit.__getitem__, lam)): int(c) for lam, c in f.terms.items()}
        start = time.perf_counter()
        out = _nested(table, 64, target, one_part)
        assert time.perf_counter() - start < 1
        assert_same_output(out, ref_nested(f, source, target, one_part))
        assert len(decode.__self__) < 10_000 and _count_keys(64)[1] == decode

    def test_many_parts_do_not_recurse(self):
        # the product route recursed once per part and raised RecursionError here
        f = SymFunc.single(Basis.P, (1,) * 1500)
        assert p_to_e(f) == SymFunc.single(Basis.E, (1,) * 1500)

    def test_degree_zero_and_zero_function(self):
        assert p_to_e(SymFunc.single(Basis.P, (), 5)) == SymFunc.single(Basis.E, (), 5)
        assert e_to_p(SymFunc.single(Basis.E, (), Fraction(1, 3))) == SymFunc.single(Basis.P, (), Fraction(1, 3))
        assert p_to_e(SymFunc.zero(Basis.P, 7)) == SymFunc.zero(Basis.E, 7)
        assert e_to_p(SymFunc.zero(Basis.E, 7)) == SymFunc.zero(Basis.P, 7)

    @pytest.mark.parametrize("degree", [*range(19), 20, 22])
    def test_count_key_trie_matches_the_tuple_trie(self, degree):
        rng = random.Random(1000 + degree)
        for integral in (True, False):
            for _ in range(3):
                f = random_function(rng, Basis.P, degree, integral)
                assert_same_output(p_to_e(f), ref_nested_p_to_e(f))
                f = random_function(rng, Basis.E, degree, integral)
                assert_same_output(e_to_p(f), ref_nested_e_to_p(f))
        assert_same_output(p_to_e(SymFunc.zero(Basis.P, degree)), ref_nested_p_to_e(SymFunc.zero(Basis.P, degree)))
        assert_same_output(e_to_p(SymFunc.zero(Basis.E, degree)), ref_nested_e_to_p(SymFunc.zero(Basis.E, degree)))

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
        assert float(out) < 110  # 213 MB with the product route's prefix memo

    def test_a_part_above_the_cap_is_refused_before_the_keys_are_built(self):
        # the keys of degree 10,000 peak at about 94 MB; p_(1^10000) and
        # s_(1^5000) have no such part and still convert
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

    def test_degree_guard(self):
        f = SymFunc.single(Basis.E, (DEFAULT_TRANSITION_CAP + 1,), 1)
        with pytest.raises(ValueError):
            e_to_s(f)
        with pytest.raises(ValueError):
            e_to_p(f)


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
