"""Closed-form counting expressions against brute-force and each other."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    avoidance_by_binomials,
    avoidance_by_filter,
    ballot_by_dp,
    ballot_by_filter,
    count_by_filter,
)
from rectcat import (
    avoidance_value,
    ballot_brute,
    ballot_value,
    binomial,
    catalan,
    coprime_catalan,
    count_rect,
    fuss_catalan,
    prime_rect,
)
from rectcat.formulas import _exact_div, _is_prime, digits


# ----------------------------------------------------------------- binomial


def pascal_table(top: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, top + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return rows


def test_binomial_matches_pascal_triangle():
    rows = pascal_table(12)
    for n, row in enumerate(rows):
        for k, want in enumerate(row):
            assert binomial(n, k) == want


def test_binomial_known_values():
    assert binomial(0, 0) == 1
    assert binomial(8, 3) == 56
    assert binomial(11, 4) == 330


def test_binomial_outside_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=150)
def test_binomial_symmetry_and_pascal(n, k):
    assert binomial(n, k) == binomial(n, n - k)
    if 1 <= k <= n:
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_exact_div_guards_remainders():
    assert _exact_div(12, 4, "ok") == 3
    with pytest.raises(ArithmeticError):
        _exact_div(13, 4, "bad")


# ------------------------------------------------------------------ catalan


def test_catalan_known_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(6) == 132
    first = [catalan(n) for n in range(10)]
    assert first == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_segner_recurrence():
    # C_{n+1} = sum_i C_i * C_{n-i}: an independent defining property
    for n in range(10):
        assert catalan(n + 1) == sum(catalan(i) * catalan(n - i) for i in range(n + 1))


# --------------------------------------------------------------- rectangles


def test_fuss_catalan_known_values():
    assert fuss_catalan(2, 1) == 2
    assert fuss_catalan(3, 2) == 12
    assert fuss_catalan(1, 5) == 1


def test_fuss_catalan_counts_rectangles():
    for a in range(1, 6):
        for k in range(1, 4):
            assert fuss_catalan(a, k) == count_rect(a, a * k)


def test_fuss_catalan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fuss_catalan(0, 2)
    with pytest.raises(ValueError):
        fuss_catalan(2, 0)


def test_coprime_catalan_known_values():
    assert coprime_catalan(3, 5) == 7
    assert coprime_catalan(5, 7) == 66
    assert coprime_catalan(1, 9) == 1
    assert coprime_catalan(2, 3) == 2


def test_coprime_catalan_counts_rectangles():
    from math import gcd

    for a in range(1, 11):
        for b in range(1, 11):
            if gcd(a, b) == 1:
                assert coprime_catalan(a, b) == count_rect(a, b)


def test_coprime_catalan_rejects_common_factors():
    with pytest.raises(ValueError):
        coprime_catalan(4, 6)
    with pytest.raises(ValueError):
        coprime_catalan(0, 3)


def test_prime_rect_known_values():
    assert prime_rect(2, 2) == 2
    assert prime_rect(3, 5) == 7
    assert prime_rect(3, 6) == 12


def test_prime_rect_counts_rectangles():
    for p in (2, 3, 5, 7):
        for b in range(1, 13):
            assert prime_rect(p, b) == count_rect(p, b)


def test_prime_rect_rejects_composite_height():
    # 25: the first height whose smallest factor is an odd one past 3
    for bad in (0, 1, 4, 6, 9, 25):
        for b in (3, 5):
            with pytest.raises(ValueError):
                prime_rect(bad, b)
    with pytest.raises(ValueError):
        prime_rect(3, 0)


def test_is_prime_matches_a_sieve():
    top = 10**4
    sieve = [False, False] + [True] * (top - 2)
    for p in range(2, top):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, top, p))
    assert [p for p in range(-3, top) if _is_prime(p)] == [p for p in range(top) if sieve[p]]
    # psi_1 ... psi_12: the least strong pseudoprimes to the first 1 ... 12 prime bases
    # (OEIS A014233), all composite; then two primes far past trial division's reach.
    psi = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383]
    psi += [341550071728321] * 2 + [3825123056546413051] * 3 + [318665857834031151167461]
    assert not any(map(_is_prime, psi))
    assert _is_prime(10**14 + 31) and _is_prime(10**18 + 9)
    # Past psi_13 a factor among the bases still answers, and only a height without one
    # is refused: the test would no longer be exact.
    assert not _is_prime(10**30) and not _is_prime(41 * (10**30 + 57))
    for p in (3317044064679887385961981, 10**30 + 57):
        with pytest.raises(ValueError, match=r"^height must be below \d+, where the prime test is"):
            _is_prime(p)


# ----------------------------------------------------------- decimal text


def test_digits_writes_ints_and_fractions_of_any_length():
    assert [digits(n) for n in (0, 7, -12, Fraction(42, 5), Fraction(-3, 2))] == [
        "0", "7", "-12", "42/5", "-3/2",
    ]
    # 7,000 digits each way, past the 4300 that str() converts on Python 3.11+.
    big = 3**14670
    assert digits(big) == str(Decimal(big)) and len(digits(big)) == 7000
    assert digits(Fraction(big, big + 2)) == f"{Decimal(big)}/{Decimal(big + 2)}"


# ------------------------------------------------- ballot-style expressions


def test_ballot_value_is_exact_fraction():
    assert ballot_value(1, 2, 1) == Fraction(3)
    assert ballot_value(2, 5, 2) == Fraction(42, 5)
    assert ballot_value(1, 2, 0) == Fraction(9, 2)
    assert isinstance(ballot_value(2, 5, 2), Fraction)


def test_ballot_value_domain():
    with pytest.raises(ValueError):
        ballot_value(0, 2, 1)
    with pytest.raises(ValueError):
        ballot_value(1, 2, -1)
    with pytest.raises(ValueError):
        ballot_value(1, 2, 2)  # needs b > a*k
    with pytest.raises(ValueError):
        ballot_value(2, 4, 2)  # b == a*k is still too small


def test_avoidance_value_known():
    assert avoidance_value(1, 1) == 6
    assert avoidance_value(1, 2) == 8
    assert avoidance_value(2, 1) == 70


def test_avoidance_value_k0_is_power_of_four():
    # k = 0: C(2n,2n) + sum_{i<2n} C(2n,i) = 2^{2n}
    for n in range(1, 7):
        assert avoidance_value(n, 0) == 4**n


def test_avoidance_value_matches_one_comb_per_binomial():
    # n <= 24, k <= 12 takes in the corpus's `formula avoidance 6 9`
    for n in range(1, 25):
        for k in range(13):
            assert avoidance_value(n, k) == avoidance_by_binomials(n, k), (n, k)


def test_avoidance_value_counts_walks_above_the_line():
    # walks of 2(k+1)n steps never below y = k*x: n = 1 gives 2k + 4, k = 0 all 4^n
    for n, k in [(n, k) for n in range(1, 9) for k in range(8) if 2 * (k + 1) * n <= 16]:
        assert avoidance_value(n, k) == avoidance_by_filter(n, k), (n, k)
    # past the filter's reach, the same walks summed endpoint by endpoint
    for n in range(1, 6):
        for k in range(6):
            length = 2 * (k + 1) * n
            walks = sum(ballot_by_dp(a, length - a, k) for a in range(length + 1))
            assert avoidance_value(n, k) == walks, (n, k)


def test_avoidance_value_domain():
    with pytest.raises(ValueError):
        avoidance_value(0, 1)
    with pytest.raises(ValueError):
        avoidance_value(1, -1)


def test_ballot_brute_diverges_from_expression():
    # the expression and the y >= k*x counter model different conventions;
    # this frozen pair documents that they are NOT interchangeable
    assert ballot_brute(1, 2, 1) == 2
    assert ballot_value(1, 2, 1) == 3


def test_ballot_brute_unconstrained_is_binomial():
    for a in range(0, 7):
        for b in range(0, 7):
            assert ballot_brute(a, b, 0) == binomial(a + b, a)


def test_ballot_brute_edge_cases():
    assert ballot_brute(0, 0, 5) == 1
    assert ballot_brute(0, 4, 3) == 1  # straight up the y-axis
    assert ballot_brute(3, 2, 1) == 0  # endpoint below y = k*x
    with pytest.raises(ValueError):
        ballot_brute(-1, 2, 0)


def test_ballot_brute_small_grid_by_hand():
    # k = 1, a = b = 2: the two staying-weakly-above-diagonal paths
    assert ballot_brute(2, 2, 1) == 2
    # matches counting b-by-a Dyck words when k = 1 and the grid is square
    for n in range(1, 7):
        assert ballot_brute(n, n, 1) == count_by_filter(n, n)


def test_ballot_brute_matches_a_path_filter():
    for a in range(7):
        for b in range(13):
            for k in range(4):
                assert ballot_brute(a, b, k) == ballot_by_filter(a, b, k), (a, b, k)


def test_ballot_brute_matches_the_dp_on_a_grid():
    # the walk filter enumerates C(a + b, a) walks and cannot reach b = 44
    for a in range(10):
        for k in range(5):
            for b in range(45):
                assert ballot_brute(a, b, k) == ballot_by_dp(a, b, k), (a, b, k)


def test_ballot_forms_differ_by_b_plus_one_over_b():
    # ballot_value divides by b where the path count divides by b + 1, so
    # ballot_value = (b + 1)/b * ballot_brute.  As b and b + 1 are coprime it
    # is an integer only when b divides ballot_brute: on 302 of these 352 cells
    # it is not, so ballot_value counts nothing there.
    cells = [(a, b, k) for a in range(1, 9) for k in range(4) for b in range(k * a + 1, k * a + 12)]
    assert len(cells) == 352
    for a, b, k in cells:
        assert ballot_value(a, b, k) * b == ballot_brute(a, b, k) * (b + 1), (a, b, k)
    assert sum(ballot_value(a, b, k).denominator != 1 for a, b, k in cells) == 302
