"""Partition machinery and the partition-sum rectangle count."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_by_partition_sum, z_lambda
from rectcat import bizley_count, coprime_catalan, count_rect, partitions, phi
from rectcat import bizley as bizley_mod


# --------------------------------------------------------------- partitions


def test_partitions_small_values():
    assert partitions(1) == [(1,)]
    assert partitions(2) == [(2,), (1, 1)]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions(5)) == 7
    assert len(partitions(8)) == 22


def test_partitions_shape():
    for d in range(1, 9):
        parts = partitions(d)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert sum(lam) == d
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        assert parts == sorted(parts, reverse=True)  # reverse-lexicographic


def test_partitions_rejects_nonpositive():
    with pytest.raises(ValueError):
        partitions(0)


# ---------------------------------------------------------------------- phi


def test_phi_known_values():
    assert phi(1, 1, 1) == Fraction(1)
    assert phi(1, 1, 2) == Fraction(3, 2)
    assert phi(2, 3, 1) == Fraction(2)


def test_phi_first_term_is_coprime_count():
    for a in range(1, 9):
        for b in range(1, 9):
            if gcd(a, b) == 1:
                assert phi(a, b, 1) == coprime_catalan(a, b)


def test_phi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        phi(2, 4, 1)  # not coprime
    with pytest.raises(ValueError):
        phi(1, 1, 0)
    with pytest.raises(ValueError):
        phi(0, 1, 1)


# ------------------------------------------------------------ partition sum


def test_bizley_known_values():
    assert bizley_count(2, 2) == 2
    assert bizley_count(4, 6) == 23
    assert bizley_count(6, 8) == 227
    assert bizley_count(6, 9) == 377
    assert bizley_count(3, 5) == 7


def test_bizley_matches_oracle():
    for a in range(1, 11):
        for b in range(1, 11):
            assert bizley_count(a, b) == count_rect(a, b)


def test_bizley_on_coprime_sides_is_single_term():
    for a in range(1, 9):
        for b in range(1, 9):
            if gcd(a, b) == 1:
                assert bizley_count(a, b) == coprime_catalan(a, b)


def test_bizley_agrees_with_z_weighted_form():
    # same sum arranged through z_lambda: prod_i (lambda_i * phi_{lambda_i}) / z_lambda
    def z_weighted(m, n):
        d = gcd(m, n)
        a, b = m // d, n // d
        total = Fraction(0)
        for lam in partitions(d):
            term = Fraction(1)
            for part in lam:
                term *= part * phi(a, b, part)
            total += term / z_lambda(lam)
        assert total.denominator == 1
        return int(total)

    for a0, b0 in [(1, 1), (1, 2), (2, 3), (3, 4)]:
        for d in range(1, 7):
            assert bizley_count(d * a0, d * b0) == z_weighted(d * a0, d * b0)


def test_bizley_matches_term_by_term_partition_sum():
    for a0, b0 in [(1, 1), (1, 2), (2, 3), (3, 4), (2, 5)]:
        for d in range(1, 11):
            assert bizley_count(d * a0, d * b0) == count_by_partition_sum(d * a0, d * b0)


@given(
    st.sampled_from([(a, b) for a in range(1, 7) for b in range(1, 7) if gcd(a, b) == 1]),
    st.integers(1, 40),
)
@settings(deadline=None)
def test_bizley_matches_oracle_up_to_gcd_40(base, d):
    a0, b0 = base
    assert bizley_count(d * a0, d * b0) == count_rect(d * a0, d * b0)


def test_bizley_rejects_nonpositive():
    with pytest.raises(ValueError):
        bizley_count(0, 5)
    with pytest.raises(ValueError):
        bizley_count(5, -1)


@pytest.mark.parametrize(
    "fault, where",
    [
        (lambda a, b, j: Fraction(1, 3), "weight w_1"),
        (lambda a, b, j: phi(a, b, j) + 1, "at k = 2"),
    ],
    ids=["non-integral-weight", "off-by-one"],
)
def test_bizley_integrality_guard_trips_on_fault(monkeypatch, fault, where):
    monkeypatch.setattr(bizley_mod, "phi", fault)
    with pytest.raises(ArithmeticError, match=where):
        bizley_mod.bizley_count(2, 2)
