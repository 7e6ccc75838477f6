import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from chromsym.partitions import Partition, partitions_of
from chromsym.symfunc import (
    Basis,
    DEFAULT_TRANSITION_CAP,
    SymFunc,
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
        n = DEFAULT_TRANSITION_CAP
        f = (
            SymFunc.single(Basis.E, (n,), 3)
            + SymFunc.single(Basis.E, (10, 7, 5), Fraction(-1, 2))
            + SymFunc.single(Basis.E, (6, 5, 4, 3, 2, 1, 1), Fraction(2, 3))
            + SymFunc.single(Basis.E, (4, 4, 3, 3, 2, 2, 2, 1, 1), 5)
            + SymFunc.single(Basis.E, (1,) * n, -1)
        )
        assert s_to_e(e_to_s(f)) == f
        assert p_to_e(e_to_p(f)) == f

    def test_e_to_p_matches_pointwise_oracle(self):
        f = SymFunc.single(Basis.E, (3, 2), 1)
        g = e_to_p(f)
        assert evaluate_at_points(f, POINTS) == evaluate_at_points(g, POINTS)


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

    def test_guard_override(self):
        f = SymFunc.single(Basis.E, (6,), 1)
        with pytest.raises(ValueError):
            e_to_p(f, max_degree=5)
        assert p_to_e(e_to_p(f, max_degree=6)) == f


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
