"""Corner splitting, the telescoping term lists, and the even-height theorems."""

import math
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import subdiagrams_by_filter
from rectcat import (
    as_diagram,
    bizley_count,
    christoffel_diagram,
    coprime_catalan,
    count_paths,
    count_rect,
    rule2_terms,
    theorem1_count,
    theorem2_count,
    through_box_split,
)
from rectcat import comparison, diagrams, verify


# ------------------------------------------------------------------ split


def test_split_examples():
    assert through_box_split((4, 3, 1), 2) == ((4, 2, 1), (1,), (1,))
    assert through_box_split((4, 2, 1), 1) == ((3, 2, 1), (2, 1), ())
    assert through_box_split((2,), 1) == ((1,), (), ())
    assert through_box_split((4, 3, 1), 3) == ((4, 3), (), (3, 2))  # the emptied row is dropped


def test_split_rejects_bad_rows():
    with pytest.raises(ValueError):
        through_box_split((4, 3, 1), 0)
    with pytest.raises(ValueError):
        through_box_split((4, 3, 1), 4)
    with pytest.raises(ValueError):
        through_box_split((3, 3), 1)  # row 1 ends under row 2, not at a corner


def outer_corners(mu):
    return [
        r
        for r in range(1, len(mu) + 1)
        if mu[r - 1] > (mu[r] if r < len(mu) else 0)
    ]


def split_contract_holds(mu):
    ok = True
    for r in outer_corners(mu):
        slimmed, upper, lower = through_box_split(mu, r)
        slim = as_diagram(mu[: r - 1] + (mu[r - 1] - 1,) + mu[r:])
        ok &= slimmed == slim
        ok &= count_paths(mu) == count_paths(slim) + count_paths(upper) * count_paths(lower)
    return ok


def test_split_contract_exhaustive():
    # every outer corner of every sub-diagram of every staircase, a<=6, b<=8
    for a in range(1, 7):
        for b in range(1, 9):
            for rows in subdiagrams_by_filter(christoffel_diagram(a, b)):
                assert split_contract_holds(as_diagram(rows))


@given(st.lists(st.integers(0, 9), max_size=6))
@settings(max_examples=300)
def test_split_contract_random_diagrams(rows):
    mu = as_diagram(sorted(rows, reverse=True))
    assert split_contract_holds(mu)


def test_split_contract_sweep_memo_keeps_faults_visible(monkeypatch):
    clean = verify.check_split_contract(6, 8, cache(diagrams.count_paths), verify.diagram_lists(8))
    assert clean.passed
    oracle, asked = diagrams.count_paths, []

    def one_too_many(mu):  # off by one on every diagram of two or more rows
        asked.append(mu)
        return oracle(mu) + (len(as_diagram(mu)) >= 2)

    monkeypatch.setattr(diagrams, "count_paths", one_too_many)
    faulty = verify.check_split_contract(6, 8, cache(diagrams.count_paths), verify.diagram_lists(8))
    assert faulty.cells == clean.cells
    assert faulty.failures
    # The sweep asks the oracle about each distinct diagram once, and
    # enumerate_paths sizes each rectangle without it.
    assert len(asked) == len(set(asked))
    monkeypatch.undo()
    # Nothing cached under the fault outlives the call that cached it.
    again = verify.check_split_contract(6, 8, cache(diagrams.count_paths), verify.diagram_lists(8))
    assert again.passed
    assert again.cells == clean.cells


def test_split_contract_sweep_split_cache_keeps_faults_visible(monkeypatch):
    clean = verify.check_split_contract(6, 8, cache(diagrams.count_paths), verify.diagram_lists(8))
    assert clean.passed
    split, asked = comparison.through_box_split, []

    def drop_lower(mu, r):  # a swap of the parts would not show: their counts multiply
        asked.append((mu, r))
        slimmed, upper, _ = split(mu, r)
        return slimmed, upper, ()

    monkeypatch.setattr(comparison, "through_box_split", drop_lower)
    faulty = verify.check_split_contract(6, 8, cache(diagrams.count_paths), verify.diagram_lists(8))
    assert faulty.cells == clean.cells
    # Counterexample text, byte for byte.
    assert len(faulty.failures) == 1296
    assert faulty.failures[0] == "split of (2, 1) at row 2: 4, oracle 5"
    assert faulty.failures[-1] == "split of (6, 5, 4, 2, 1) at row 5: 152, oracle 227"
    # The sweep asks about each distinct corner once.
    assert len(asked) == len(set(asked)) < clean.cells
    monkeypatch.undo()
    # Nothing cached under the fault outlives the call that cached it.
    again = verify.check_split_contract(6, 8, cache(diagrams.count_paths), verify.diagram_lists(8))
    assert again.passed
    assert again.cells == clean.cells


# ------------------------------------------------------------ term lists


def test_rule2_term_structures():
    assert rule2_terms(6, "lower", 1) == [
        ((1, 2), (5, 6)),
        ((2, 3), (4, 5)),
        ((3, 4), (3, 4)),
    ]
    assert rule2_terms(8, "upper", 1) == [
        ((1, 1), (7, 13)),
        ((2, 3), (6, 11)),
        ((3, 5), (5, 9)),
    ]
    assert rule2_terms(2, "upper", 0) == []
    assert rule2_terms(2, "lower", 0) == [((1, 1), (1, 1))]


def test_rule2_upper_degenerates_at_n0():
    with pytest.raises(ValueError):
        rule2_terms(4, "upper", 0)


def test_rule2_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rule2_terms(5, "lower", 1)  # odd height
    with pytest.raises(ValueError):
        rule2_terms(0, "lower", 1)
    with pytest.raises(ValueError):
        rule2_terms(6, "sideways", 1)
    with pytest.raises(ValueError):
        rule2_terms(6, "lower", -1)


def test_rule2_factors_are_coprime_rectangles():
    for k in range(1, 7):
        a = 2 * k
        for n in range(5):
            for family in ("upper", "lower"):
                if family == "upper" and n == 0 and k >= 2:
                    continue
                for (t1, w1), (t2, w2) in rule2_terms(a, family, n):
                    assert t1 + t2 == a
                    assert gcd(t1, w1) == 1
                    assert gcd(t2, w2) == 1


def test_rule2_sums_telescope():
    for k in range(1, 4):
        a = 2 * k
        for n in range(4):
            lower_sum = sum(
                count_rect(*left) * count_rect(*right)
                for left, right in rule2_terms(a, "lower", n)
            )
            b = a * n + 2
            assert lower_sum == count_rect(a, b) - count_rect(a, b - 1)
            if n == 0 and k >= 2:
                continue
            upper_sum = sum(
                count_rect(*left) * count_rect(*right)
                for left, right in rule2_terms(a, "upper", n)
            )
            b = a * (n + 1) - 2
            if b >= 1:
                assert upper_sum == count_rect(a, b + 1) - count_rect(a, b)


def test_rule2_frozen_width_step():
    # a = 6, lower, n = 1: 1*42 + 2*14 + 5*5 = 95 = 227 - 132
    terms = rule2_terms(6, "lower", 1)
    products = [count_rect(*left) * count_rect(*right) for left, right in terms]
    assert products == [42, 28, 25]
    assert sum(products) == 95
    assert count_rect(6, 8) - count_rect(6, 7) == 95


# --------------------------------------------------------------- theorems


def test_theorem1_known_values():
    assert theorem1_count(2, 1) == 23  # 30 - 7
    assert theorem1_count(3, 1) == 525  # 728 - 143 - 60
    assert theorem1_count(2, 0) == 3  # 5 - 2
    assert theorem1_count(4, 0) == 227  # 429 - 132 - 42 - 28
    assert theorem1_count(1, 0) == 1  # zero-width rectangle, single path


def test_theorem1_expansions():
    assert coprime_catalan(4, 7) - coprime_catalan(3, 5) == 23
    assert (
        coprime_catalan(6, 11)
        - coprime_catalan(5, 9)
        - coprime_catalan(4, 7) * coprime_catalan(2, 3)
        == 525
    )


def test_theorem2_known_values():
    assert theorem2_count(2, 1) == 23  # 14 + 5 + 4
    assert theorem2_count(3, 1) == 227  # 132 + 42 + 28 + 25
    assert theorem2_count(1, 1) == 3


def test_theorem2_expansions():
    assert (
        coprime_catalan(4, 5)
        + coprime_catalan(3, 4) * 1
        + coprime_catalan(2, 3) ** 2
        == 23
    )
    assert (
        coprime_catalan(6, 7)
        + coprime_catalan(5, 6)
        + coprime_catalan(4, 5) * coprime_catalan(2, 3)
        + coprime_catalan(3, 4) ** 2
        == 227
    )


def test_theorems_match_oracle():
    for k in range(1, 5):
        for n in range(4):
            b1 = 2 * k * (n + 1) - 2
            if b1 >= 1:
                assert theorem1_count(k, n) == count_rect(2 * k, b1)
            if n >= 1:
                assert theorem2_count(k, n) == count_rect(2 * k, 2 * k * n + 2)


def test_theorem_oracle_first_values():
    # oracle first, then the closed forms reproduce them
    assert count_rect(4, 2) == 3
    assert count_rect(6, 10) == 525
    assert count_rect(2, 4) == 3
    assert theorem1_count(2, 0) == 3
    assert theorem1_count(3, 1) == 525
    assert theorem2_count(1, 1) == 3


def test_theorem_domain():
    with pytest.raises(ValueError):
        theorem1_count(0, 1)
    with pytest.raises(ValueError):
        theorem1_count(2, -1)
    with pytest.raises(ValueError):
        theorem2_count(0, 1)
    with pytest.raises(ValueError):
        theorem2_count(2, 0)


def test_even_height_closed_form_width_minus_two():
    # a = 8, b = 8n+6: subtract coprime products one width up
    for n in range(3):
        want = (
            coprime_catalan(8, 8 * n + 7)
            - coprime_catalan(7, 7 * n + 6)
            - coprime_catalan(6, 6 * n + 5) * coprime_catalan(2, 2 * n + 1)
            - coprime_catalan(5, 5 * n + 4) * coprime_catalan(3, 3 * n + 2)
        )
        assert count_rect(8, 8 * n + 6) == want
        assert theorem1_count(4, n) == want


def test_even_height_closed_form_width_plus_two():
    # a = 6, b = 6n+2: add coprime products one width down
    for n in range(4):
        want = (
            coprime_catalan(6, 6 * n + 1)
            + coprime_catalan(5, 5 * n + 1)
            + coprime_catalan(4, 4 * n + 1) * coprime_catalan(2, 2 * n + 1)
            + coprime_catalan(3, 3 * n + 1) ** 2
        )
        assert count_rect(6, 6 * n + 2) == want


# --------------------------------------------------------- factor table


def _theorem_rectangles(max_a, max_b, max_cells):
    for a in range(2, max_a + 1, 2):
        for b in range(1, min(max_b, max_cells // a) + 1):
            fit = comparison.theorem_fit(a, b)
            if fit is not None:
                family, k, n = fit
                count = theorem1_count if family == "upper" else theorem2_count
                yield a, b, family, count(k, n)


def test_theorems_match_bizley_over_the_count_workload_range():
    # Every theorem rectangle has gcd 2, so the partition sum is cheap here.
    families = []
    for a, b, family, value in _theorem_rectangles(300, 450, 300 * 450):
        assert gcd(a, b) == 2
        assert value == bizley_count(a, b), (a, b)
        families.append(family)
    assert len(families) == 2030 and set(families) == {"upper", "lower"}


def test_theorems_match_oracle_up_to_4000_cells():
    seen = 0
    for a, b, _, value in _theorem_rectangles(4000, 2000, 4000):
        assert value == diagrams.count_rect(a, b), (a, b)
        seen += 1
    assert seen == 1951


@pytest.mark.parametrize("family", ["upper", "lower"])
def test_factor_table_matches_coprime_catalan(family):
    for n in range(13):
        s, c = (n + 2, -1) if family == "upper" else (n + 1, 1)
        table = comparison._factor_table(60, s, c)
        assert len(table) == 61 and table[1] == 1  # F(1) = 1, width zero included
        for t in range(1, 61):
            if (s - 1) * t + c >= 1:
                assert table[t] == coprime_catalan(t, (s - 1) * t + c), (family, n, t)


def test_factor_table_refuses_to_round(monkeypatch):
    # c = 0 breaks coprimality: F(2) = C(3, 1) / 2 is not an integer.
    with pytest.raises(ArithmeticError, match=r"^theorem factor F\(2\) for s = 2, c = 0 is not integral$"):
        comparison._factor_table(4, 2, 0)
    # A numerator off by one from the second step on: the division would have
    # to round, and the message carries none of the big values.
    monkeypatch.setattr(comparison, "perm", lambda n, k: math.perm(n, k) + (k == 2))
    with pytest.raises(ArithmeticError) as err:
        theorem1_count(148, 0)
    assert str(err.value) == "theorem factor F(3) for s = 2, c = -1 is not integral"
