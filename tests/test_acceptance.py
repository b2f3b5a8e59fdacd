"""Acceptance checks: the headline numbers, sweeps, and contracts in one place.

Each test covers one acceptance criterion, asserts exact equality (and the
stated time budget where one applies), and prints a single PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import random
from fractions import Fraction
from math import comb, gcd
from time import perf_counter

from rectcat import (
    as_diagram,
    avoidance_value,
    ballot_brute,
    ballot_value,
    bizley_count,
    catalan,
    christoffel_diagram,
    coprime_catalan,
    count_paths,
    count_rect,
    decompose,
    delta,
    diagram_to_word,
    delta_closed_lower,
    delta_closed_upper,
    enumerate_paths,
    fuss_catalan,
    h_value,
    prime_rect,
    q_boxes,
    render,
    rule2_terms,
    theorem1_count,
    theorem2_count,
    through_box_split,
    word_to_diagram,
)


def report(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")


def test_criterion_1_four_routes_to_23():
    start = perf_counter()
    routes = {
        "oracle": count_rect(4, 6),
        "partition-sum": bizley_count(4, 6),
        "subtractive-theorem": theorem1_count(2, 1),
        "additive-theorem": theorem2_count(2, 1),
        "decomposition": h_value(decompose(christoffel_diagram(4, 6))),
    }
    elapsed = perf_counter() - start
    ok = all(v == 23 for v in routes.values()) and elapsed < 0.1
    report(1, ok, f"4x6 count is 23 via all routes {sorted(routes)} in {elapsed * 1e3:.1f} ms")
    assert routes == dict.fromkeys(routes, 23)
    assert elapsed < 0.1


def test_criterion_2_377_and_227():
    start = perf_counter()
    six_nine = {
        "oracle": count_rect(6, 9),
        "partition-sum": bizley_count(6, 9),
        "decomposition": h_value(decompose(christoffel_diagram(6, 9))),
    }
    six_eight = {
        "oracle": count_rect(6, 8),
        "additive-theorem": theorem2_count(3, 1),
    }
    elapsed = perf_counter() - start
    ok = (
        all(v == 377 for v in six_nine.values())
        and all(v == 227 for v in six_eight.values())
        and elapsed < 0.1
    )
    report(2, ok, f"6x9 count is 377 and 6x8 count is 227 in {elapsed * 1e3:.1f} ms")
    assert six_nine == dict.fromkeys(six_nine, 377)
    assert six_eight == dict.fromkeys(six_eight, 227)
    assert elapsed < 0.1


def test_criterion_3_box_count_identities():
    steps = [q_boxes(8, 8 * n + 7) - q_boxes(8, 8 * n + 6) for n in range(9)]
    profiles_ok = all(
        delta(2 * k, 2 * k * (n + 1) - 1, l) == delta_closed_upper(k, n, l)
        and delta(2 * k, 2 * k * n + 2, l) == delta_closed_lower(k, n, l)
        for k in range(1, 9)
        for n in range(9)
        for l in range(1, 2 * k)
    )
    ok = steps == [3] * 9 and profiles_ok
    report(3, ok, "q-box steps at height 8 equal 3 and growth profiles match closed forms")
    assert steps == [3] * 9
    assert profiles_ok


def test_criterion_4_formula_oracle_sweeps():
    start = perf_counter()
    for a in range(2, 13):
        for b in range(2, 13):
            if gcd(a, b) == 1:
                assert coprime_catalan(a, b) == count_rect(a, b)
            assert bizley_count(a, b) == count_rect(a, b)
    for a in range(1, 6):
        for k in range(1, 4):
            assert fuss_catalan(a, k) == count_rect(a, a * k)
    for p in (2, 3, 5, 7):
        for b in range(1, 15):
            assert prime_rect(p, b) == count_rect(p, b)
    elapsed = perf_counter() - start
    ok = elapsed < 60
    report(4, ok, f"coprime/partition-sum/fuss/prime sweeps match the oracle in {elapsed:.2f} s")
    assert elapsed < 60


def test_criterion_5_theorem_sweeps():
    assert count_rect(4, 2) == 3
    assert count_rect(6, 10) == 525
    assert count_rect(2, 4) == 3
    for k in range(1, 5):
        for n in range(4):
            b = 2 * k * (n + 1) - 2
            if b >= 1:  # k = 1, n = 0 gives the zero-width rectangle
                assert theorem1_count(k, n) == count_rect(2 * k, b)
            if n >= 1:
                assert theorem2_count(k, n) == count_rect(2 * k, 2 * k * n + 2)
    assert theorem1_count(2, 0) == 3
    assert theorem1_count(3, 1) == 525
    assert theorem2_count(1, 1) == 3
    report(5, True, "both theorems match the oracle for k <= 4, n <= 3 (3, 525, 3 included)")


def test_criterion_6_split_and_telescope_contracts():
    for a in range(1, 7):
        for b in range(1, 9):
            for _, mu in enumerate_paths(a, b):
                for r in range(1, len(mu) + 1):
                    if mu[r - 1] <= (mu[r] if r < len(mu) else 0):
                        continue
                    slimmed, upper, lower = through_box_split(mu, r)
                    slim = as_diagram(mu[: r - 1] + (mu[r - 1] - 1,) + mu[r:])
                    assert slimmed == slim
                    assert count_paths(mu) == count_paths(slim) + count_paths(
                        upper
                    ) * count_paths(lower)
    for a in (2, 4, 6):
        for n in range(4):
            lower_sum = sum(
                count_rect(*left) * count_rect(*right)
                for left, right in rule2_terms(a, "lower", n)
            )
            assert lower_sum == count_rect(a, a * n + 2) - count_rect(a, a * n + 1)
            if n >= 1:
                upper_sum = sum(
                    count_rect(*left) * count_rect(*right)
                    for left, right in rule2_terms(a, "upper", n)
                )
                b = a * (n + 1) - 2
                assert upper_sum == count_rect(a, b + 1) - count_rect(a, b)
    assert count_rect(6, 8) - count_rect(6, 7) == 95 == 227 - 132
    report(6, True, "split identity exhaustive to 6x8; telescoping sums equal width steps")


def test_criterion_7_decomposition_soundness():
    for a in range(1, 6):
        for b in range(1, 8):
            for _, mu in enumerate_paths(a, b):
                assert h_value(decompose(mu)) == count_paths(mu)
    rng = random.Random(7)
    pools: dict[tuple[int, int], list[tuple[str, tuple[int, ...]]]] = {}
    for _ in range(500):
        a, b = rng.randint(1, 8), rng.randint(1, 12)
        if (a, b) not in pools:
            pools[a, b] = list(enumerate_paths(a, b))
        _, mu = rng.choice(pools[a, b])
        assert h_value(decompose(mu)) == count_paths(mu)
    rendered = render(decompose((4, 3, 1)))
    assert rendered == "C4 + C3 + C2*C2"
    report(7, True, f"decomposition equals the oracle everywhere; (4,3,1) renders {rendered!r}")


def test_criterion_8_bijection_and_enumeration():
    for a in range(1, 9):
        for b in range(1, 9):
            paths = list(enumerate_paths(a, b))
            diagrams_seen = set()
            for word, mu in paths:
                assert word_to_diagram(a, b, word) == mu
                diagrams_seen.add(mu)
                assert diagram_to_word(a, b, mu) == word
            assert len(diagrams_seen) == len(paths)
            if a <= 6 and b <= 6:
                assert len(paths) == count_rect(a, b)
    assert all(catalan(n) == count_rect(n, n) for n in range(1, 11))
    report(8, True, "word-diagram round trip, enumeration counts, and Catalan squares agree")


def test_criterion_9_expression_evaluators():
    assert avoidance_value(1, 2) == 8 == comb(6, 2) - (comb(6, 0) + comb(6, 1))
    assert avoidance_value(1, 1) == comb(4, 2) == 6
    assert ballot_value(2, 5, 2) == Fraction(2, 5) * comb(7, 2) == Fraction(42, 5)
    assert ballot_value(1, 2, 1) == Fraction(3)
    # the brute counter follows a different convention; informational only
    assert ballot_brute(1, 2, 1) == 2
    report(9, True, "ballot and avoidance expressions reproduce their verbatim arithmetic")
