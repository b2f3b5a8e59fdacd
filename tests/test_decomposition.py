"""Sum/product rewriting over isosceles staircases and its Catalan evaluation."""

import hashlib
import json
import os
import random
import sys
import tracemalloc
from collections import Counter
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    corner_by_scan,
    iso_rows,
    max_isosceles_by_scan,
    normal_form,
    subdiagrams_by_filter,
    tree,
)
from rectcat import (
    as_diagram,
    catalan,
    christoffel_diagram,
    count_paths,
    count_rect,
    decompose,
    enumerate_paths,
    expr_stats,
    h_value,
    render,
    through_box_split,
)
from rectcat import decomposition as decomposition_mod
from rectcat import verify
from rectcat.decomposition import _build, json_pieces

# Catalan numbers by Segner's recurrence, independent of formulas.catalan.
CATALAN = [1]
for _n in range(40):
    CATALAN.append(sum(CATALAN[i] * CATALAN[_n - i] for i in range(_n + 1)))


def table(*spec):
    """A table from rows without values: ("one",), ("iso", n) or ("split", i, j, k)."""
    rows = []
    for kind, *args in spec:
        if kind == "split":
            i, j, k = args
            rows.append(("split", rows[i][1] + rows[j][1] * rows[k][1], i, j, k))
        elif kind == "iso":
            rows.append(("iso", CATALAN[args[0]], args[0]))
        else:
            rows.append(("one", 1))
    return tuple(rows)


def evaluate(rows) -> list[int]:
    """Each row's value, from the row kinds and indices alone."""
    values = []
    for row in rows:
        if row[0] == "split":
            _, _, i, j, k = row
            values.append(values[i] + values[j] * values[k])
        else:
            values.append(CATALAN[row[2]] if row[0] == "iso" else 1)
    return values


@st.composite
def subdiagrams(draw, max_a=8, max_b=12):
    a = draw(st.integers(1, max_a))
    b = draw(st.integers(1, max_b))
    rows = []
    for top in christoffel_diagram(a, b):
        rows.append(draw(st.integers(0, min([top, *rows[-1:]]))))
    return as_diagram(rows)


# ------------------------------------------------------------------ leaves


def test_iso_rows():
    assert iso_rows(1) == ()
    assert iso_rows(2) == (1,)
    assert iso_rows(4) == (3, 2, 1)
    with pytest.raises(ValueError):
        iso_rows(0)


def test_node_validation():
    # Every row has one of the three shapes: an iso row names a staircase
    # I_n with n >= 2 (I_1 is the empty diagram, the one row), and a split
    # row names three rows built before it.
    for rows in subdiagrams_by_filter(christoffel_diagram(7, 9)):
        for x, row in enumerate(decompose(rows)):
            if row[0] == "split":
                assert len(row) == 5 and all(0 <= c < x for c in row[2:]), (rows, row)
            elif row[0] == "iso":
                assert len(row) == 3 and row[2] >= 2, (rows, row)
            else:
                assert row == ("one", 1), (rows, row)


def test_max_isosceles():
    assert max_isosceles_by_scan((4, 3, 1)) == 4
    assert max_isosceles_by_scan(()) == 1
    assert max_isosceles_by_scan((7, 6, 4, 3, 1)) == 6
    assert max_isosceles_by_scan((2,)) == 2
    for n in range(1, 11):
        assert max_isosceles_by_scan(iso_rows(n)) == n


def test_max_isosceles_is_maximal():
    # the next staircase up never fits
    for mu in [(4, 3, 1), (5, 1), (3, 3, 2), (7, 6, 4, 3, 1)]:
        n = max_isosceles_by_scan(mu)
        grown = iso_rows(n + 1)
        assert any(mu[r - 1] < grown[r - 1] if r <= len(mu) else True for r in range(1, n + 1))


def test_max_isosceles_matches_scan_exhaustive():
    # The scan's answer fits row by row and the next staircase up does not.
    def fits(n, mu):
        return len(mu) >= n - 1 and all(m >= s for m, s in zip(mu, iso_rows(n)))

    checked = 0
    for a in range(1, 8):
        for b in range(1, 10):
            for rows in subdiagrams_by_filter(christoffel_diagram(a, b)):
                mu = as_diagram(rows)
                n = max_isosceles_by_scan(mu)
                assert fits(n, mu) and not fits(n + 1, mu), mu
                checked += 1
    assert checked == 3504


# --------------------------------------------------------------- decompose


def test_decompose_base_cases():
    assert decompose(()) == (("one", 1),)
    for n in range(2, 11):
        assert decompose(iso_rows(n)) == (("iso", CATALAN[n], n),)


def assert_split_at_scan_corner(mu, rows, at):
    # mu's split row names its slimmed part as row i.  Each diagram has one
    # row in the table, so i is the row of mu less the oracle's corner box
    # exactly when building that diagram adds no row and returns row i.
    root = rows[_build(mu, rows, at)]
    r = corner_by_scan(mu)
    assert (root[0] == "split") == bool(r), mu
    if r:
        built = len(rows)
        assert _build(through_box_split(mu, r)[0], rows, at) == root[2], mu
        assert len(rows) == built, mu


def test_decompose_corner_matches_scan_exhaustive():
    diagrams = {
        as_diagram(rows)
        for a in range(1, 9)
        for b in range(1, 13)
        for rows in subdiagrams_by_filter(christoffel_diagram(a, b))
    }
    assert len(diagrams) == 7229
    rows, at = [], {}
    for mu in sorted(diagrams):
        assert_split_at_scan_corner(mu, rows, at)
    # Both ways of finding the corner occur: I_{L+1} too large for the L rows
    # (the top row's box), and I_{L+1} inside (the topmost row past it).
    tops = {max_isosceles_by_scan(mu) == len(mu) + 1 for mu in diagrams if mu}
    assert tops == {True, False}


@settings(max_examples=60, deadline=None)
@given(subdiagrams(max_a=20, max_b=30))
@example((1, 1))
@example((5, 1))
@example((4, 3, 2, 1))
def test_decompose_corner_matches_scan_hypothesis(mu):
    assert_split_at_scan_corner(mu, [], {})


def test_decompose_iso_leaf_exactly_on_staircases_exhaustive():
    for rows in subdiagrams_by_filter(christoffel_diagram(7, 9)):
        mu = as_diagram(rows)
        if mu:
            is_iso = mu == iso_rows(max_isosceles_by_scan(mu))
            assert (decompose(mu)[-1][0] == "iso") == is_iso, mu


def test_decompose_structure_frozen():
    assert decompose((2,)) == table(("one",), ("iso", 2), ("split", 1, 0, 0))
    # C4 + C3*1, then that + C2*C2: the lower part is built first.
    assert decompose((4, 3, 1)) == table(
        ("iso", 2),
        ("one",),
        ("iso", 3),
        ("iso", 4),
        ("split", 3, 2, 1),
        ("split", 4, 0, 0),
    )


@pytest.mark.parametrize(
    "a, b, size, digest",
    [
        (23, 29, 780, "3fc5c27bc375a803362cd610990ccd87fbbf97454d53962ee4a265c3337f88c4"),
        (5, 40, 534, "91aa6924ca60087c16dd708a0a6b76dd3608c92bc757c6c85b54d3e33f43dfd9"),
        (22, 19, 118, "89b7d8069626155277d238aff16f340dcb254bee44fc5e9307f267bc397a322f"),
        (30, 45, 12057, "dd2d58380a66ae54f25ea195707c97b0a41f386df1c97331a396119b919d6ee7"),
    ],
)
def test_decompose_tables_frozen_by_digest(a, b, size, digest):
    # The rows, their order and their values: a build that reorders rows or
    # changes a value changes the digest.
    rows = decompose(christoffel_diagram(a, b))
    assert len(rows) == size
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_decompose_is_deterministic():
    mu = christoffel_diagram(6, 9)
    first, second = decompose(mu), decompose(mu)
    assert first == second
    # Nothing outlives a call: the two tables share no row object but the
    # constant one row.
    ids = [{id(row) for row in rows if row[0] != "one"} for rows in (first, second)]
    assert not ids[0] & ids[1]
    # Through one table, the builder only appends: the rows built before stay
    # the very row objects, and a repeated build adds no row.
    rows, at, built = [], {}, []
    for nu in [mu, *map(as_diagram, subdiagrams_by_filter(mu))]:
        x = _build(nu, rows, at)
        assert rows[x][1] == count_paths(nu)
        assert all(old is row for old, row in zip(built, rows))
        built = list(rows)
        assert _build(nu, rows, at) == x and len(rows) == len(built)
        assert _build((), rows, at) < len(rows)
    assert tuple(rows[: at[mu] + 1]) == first


def test_decompose_on_deep_staircase_keeps_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("decompose changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert h_value(decompose(christoffel_diagram(2, 60000))) == count_rect(2, 60000)


def test_tables_compare_and_hash_equal_on_deep_staircase():
    # 3,000 rows, each split on the one before: equality and hashing never
    # recurse through the chain.
    mu = christoffel_diagram(2, 3000)
    first, second = decompose(mu), decompose(mu)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def assert_every_row_is_reached(rows, mu):
    # Children come before their parents, and the walk down from the last
    # row meets every row of the table.
    seen, stack = set(), [len(rows) - 1]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            if rows[x][0] == "split":
                assert all(c < x for c in rows[x][2:]), (mu, x)
                stack += rows[x][2:]
    assert seen == set(range(len(rows))), mu


def test_christoffel_tables_evaluate_with_own_catalan():
    for a in range(1, 11):
        for b in range(1, 16):
            rows = decompose(christoffel_diagram(a, b))
            values = evaluate(rows)
            assert values[-1] == count_paths(christoffel_diagram(a, b)), (a, b)
            assert [row[1] for row in rows] == values, (a, b)
            assert h_value(rows) == values[-1]
            assert_every_row_is_reached(rows, (a, b))
    # The text normal form expands every row: each table holds only the
    # rows its root reaches, on every diagram of every rectangle up to 7x10.
    checked = 0
    for a in range(1, 8):
        for b in range(1, 11):
            for _, mu in enumerate_paths(a, b):
                assert_every_row_is_reached(decompose(mu), mu)
                checked += 1
    assert checked == 5551


def sweep():
    """verify.check_decomposition at 3x4, with its own oracles and lists, as run_verify makes them."""
    return verify.check_decomposition(3, 4, cache(count_paths), cache(count_rect), verify.diagram_lists(4))


def test_decomposition_sweep_memo_keeps_faults_visible(monkeypatch):
    clean = sweep()
    assert clean.passed
    monkeypatch.setattr(decomposition_mod, "catalan", lambda n: catalan(n) + 1)
    faulty = sweep()
    assert faulty.cells == clean.cells
    # Every nonempty diagram has an iso row, so only the empty one still passes.
    empty = sum(mu == () for a in range(1, 4) for b in range(1, 5) for _, mu in enumerate_paths(a, b))
    empty += sum(christoffel_diagram(a, b) == () for a in range(1, 4) for b in range(1, 5))
    assert len(faulty.failures) == faulty.cells - empty
    assert faulty.failures[0] == "decompose((1,)) values to 3, oracle 2"
    assert faulty.failures[-1] == "decompose of the 3x4 staircase values to 6, oracle 5"


def test_values_are_computed_once_per_node(monkeypatch):
    calls = []

    def spy(n):
        calls.append(n)
        return catalan(n)

    monkeypatch.setattr(decomposition_mod, "catalan", spy)
    rows, at, paths = [], {}, list(enumerate_paths(5, 7))
    xs = [_build(mu, rows, at) for _, mu in paths]
    values = [rows[x][1] for x in xs]
    assert sorted(calls) == sorted(row[2] for row in rows if row[0] == "iso")
    # A second pass adds no row and returns the rows the first built, values and all.
    calls.clear()
    built = list(rows)
    assert [_build(mu, rows, at) for _, mu in paths] == xs
    assert len(rows) == len(built) and all(old is row for old, row in zip(built, rows))
    assert calls == []
    for (_, mu), value in zip(paths, values):
        assert value == h_value(decompose(mu)) == count_paths(mu)


def test_decomposition_sweep_memo_lives_for_one_call(monkeypatch):
    tables = []

    def spy(mu, rows, at):  # note each table the first time it is seen
        if not any(rows is seen for seen, _ in tables):
            assert rows == [] and at == {}
            assert not any(at is seen for _, seen in tables)
            tables.append((rows, at))
        return _build(mu, rows, at)

    monkeypatch.setattr(decomposition_mod, "_build", spy)
    assert sweep().passed
    assert sweep().passed
    assert len(tables) == 2


def test_faulty_value_makes_a_different_table(monkeypatch):
    # A row carries its value, so a wrong value is a different table, while
    # the shape (kinds and child indices) stays as it was.
    clean = decompose((4, 3, 1))
    monkeypatch.setattr(decomposition_mod, "catalan", lambda n: 0)
    faulty = decompose((4, 3, 1))
    assert faulty != clean
    assert [row[:1] + row[2:] for row in faulty] == [row[:1] + row[2:] for row in clean]
    assert h_value(faulty) == 0
    assert repr(decompose((2,))) == "(('one', 1), ('iso', 0, 2), ('split', 1, 1, 0, 0))"


def test_decompose_leaf_purity():
    for a, b in [(4, 6), (6, 9), (5, 7), (6, 8)]:
        for row in decompose(christoffel_diagram(a, b)):
            assert row[0] in ("one", "iso", "split")
            if row[0] != "split":
                assert row in (("one", 1), ("iso", CATALAN[row[-1]], row[-1]))


# ------------------------------------------------------------- evaluation


def test_h_value_known():
    assert h_value(table(("one",))) == 1
    assert h_value(table(("iso", 3))) == 5
    assert h_value(table(("one",), ("iso", 2), ("split", 1, 0, 0))) == 3
    assert h_value(table(("one",), ("iso", 2), ("iso", 3), ("split", 0, 1, 2))) == 11
    assert h_value(decompose((4, 3, 1))) == 23
    assert h_value(decompose((2,))) == 3
    assert h_value(decompose(christoffel_diagram(6, 9))) == 377


def test_h_value_squares_are_catalan():
    for n in range(1, 9):
        assert h_value(decompose(christoffel_diagram(n, n))) == catalan(n)


def test_decomposition_sound_exhaustive():
    for a in range(1, 6):
        for b in range(1, 8):
            for rows in subdiagrams_by_filter(christoffel_diagram(a, b)):
                mu = as_diagram(rows)
                assert h_value(decompose(mu)) == count_paths(mu)


def test_decomposition_sound_random():
    rng = random.Random(20260817)
    paths_by_rect: dict[tuple[int, int], list[tuple[str, tuple[int, ...]]]] = {}
    for _ in range(500):
        a = rng.randint(1, 8)
        b = rng.randint(1, 12)
        if (a, b) not in paths_by_rect:
            paths_by_rect[a, b] = list(enumerate_paths(a, b))
        _, mu = rng.choice(paths_by_rect[a, b])
        assert h_value(decompose(mu)) == count_paths(mu)


# ------------------------------------------------------------------ stats


def test_expr_stats_known():
    assert expr_stats(table(("one",))) == (1, 1, 1)
    assert expr_stats(table(("iso", 5))) == (1, 1, 1)
    assert expr_stats(decompose((4, 3, 1))) == (3, 5, 4)
    # C2 + C2*1: the product sits one level below the sum.
    assert expr_stats(table(("one",), ("iso", 2), ("split", 1, 1, 0))) == (2, 3, 3)
    # (1 + C2*C2) + C2*1: the sum is the deeper side.
    deeper = table(("one",), ("iso", 2), ("split", 0, 1, 1), ("split", 2, 1, 0))
    assert expr_stats(deeper) == (3, 5, 4)


def tree_leaves_and_depth(node) -> tuple[int, int]:
    kids = node.get("terms") or node.get("factors") or []
    if not kids:
        return 1, 1
    counts = [tree_leaves_and_depth(kid) for kid in kids]
    return sum(c[0] for c in counts), 1 + max(c[1] for c in counts)


def test_expr_stats_summands_match_rendered_terms():
    for a, b in [(4, 6), (6, 9), (6, 8), (5, 7)]:
        rows = decompose(christoffel_diagram(a, b))
        summands, leaves, depth = expr_stats(rows)
        assert summands == render(rows).count(" + ") + 1
        assert (leaves, depth) == tree_leaves_and_depth(tree(rows))


# ----------------------------------------------------------------- render


def test_render_text_frozen():
    assert render(decompose((4, 3, 1))) == "C4 + C3 + C2*C2"
    assert render(decompose((2,))) == "C2 + 1"
    assert render(table(("one",))) == "1"
    assert render(table(("iso", 7))) == "C7"
    # One factors drop out of a product; an all-one product prints as 1.
    assert render(table(("one",), ("split", 0, 0, 0))) == "1 + 1"


def test_render_text_distributes_products():
    # 1 + (C2 + 1)*C3: the sum under the product is distributed over C3.
    rows = table(("one",), ("iso", 2), ("iso", 3), ("split", 1, 0, 0), ("split", 0, 3, 2))
    assert render(rows) == "1 + C2*C3 + C3"


def oracle_text(rows) -> str:
    return " + ".join("*".join(term) or "1" for term in normal_form(rows))


def test_render_text_matches_normal_form_oracle():
    for a in range(1, 9):
        for b in range(1, 13):
            rows = decompose(christoffel_diagram(a, b))
            assert render(rows) == oracle_text(rows)


@settings(max_examples=200, deadline=None)
@given(subdiagrams())
def test_render_text_matches_normal_form_oracle_on_subdiagrams(mu):
    rows = decompose(mu)
    assert render(rows) == oracle_text(rows)


def random_table(rng, size, max_summands=300):
    """A table of ``size`` random rows; a split that would pass ``max_summands`` is a leaf."""
    spec, summands = [], []
    for x in range(size):
        i, j, k = (rng.randrange(x) for _ in range(3)) if x else (0, 0, 0)
        if x and rng.random() < 0.6 and summands[i] + summands[j] * summands[k] <= max_summands:
            spec.append(("split", i, j, k))
            summands.append(summands[i] + summands[j] * summands[k])
        else:
            # C1, C10, C11 and C12 put a "1" right after a "C" in a term.
            spec.append(("one",) if rng.random() < 0.35 else ("iso", rng.randint(1, 12)))
            summands.append(1)
    return table(*spec)


def test_render_text_matches_normal_form_oracle_on_random_tables():
    # Every prefix of a table is a table, so each split row is rendered as a
    # root, and the cases of a product t_j * t_k are counted as they occur.
    rng = random.Random(20150)
    seen = Counter()
    for _ in range(500):
        rows = random_table(rng, rng.randint(1, 9))
        for x, row in enumerate(rows):
            prefix = rows[: x + 1]
            assert render(prefix) == oracle_text(prefix), prefix
            if row[0] == "split":
                _, _, i, j, k = row
                tj, tk = normal_form(rows, j), normal_form(rows, k)
                seen["several terms in t_j"] += len(tj) > 1
                seen["1 in t_j"] += () in tj
                seen["1 in t_k"] += () in tk
                seen["1 on both sides"] += () in tj and () in tk
                seen["1 + 1"] += normal_form(rows, x).count(()) > 1
                seen["one row as i, j and k"] += i == j == k
    cases = ["several terms in t_j", "1 in t_j", "1 in t_k", "1 on both sides", "1 + 1",
             "one row as i, j and k"]
    assert all(seen[case] for case in cases), seen


@pytest.mark.parametrize(
    "expr, text",
    [
        (table(("one",)), "1"),
        (table(("one",), ("iso", 2), ("split", 1, 0, 0)), "C2 + 1"),
        (table(("one",), ("iso", 3), ("split", 0, 0, 1)), "1 + C3"),
        (table(("one",), ("iso", 3), ("split", 1, 1, 1)), "C3 + C3*C3"),
        (
            table(
                ("iso", 2), ("iso", 3), ("iso", 4), ("iso", 5), ("one",),
                ("split", 0, 4, 1),  # C2 + C3
                ("split", 2, 3, 4),  # C4 + C5
                ("split", 4, 5, 6),  # 1 + (C2 + C3)*(C4 + C5)
            ),
            "1 + C2*C4 + C2*C5 + C3*C4 + C3*C5",
        ),
        (table(("one",), ("iso", 2), ("split", 0, 1, 0), ("split", 2, 0, 0)), "1 + C2 + 1"),
        (
            table(
                ("one",), ("iso", 10), ("iso", 3),
                ("split", 0, 1, 0),  # 1 + C10
                ("split", 3, 0, 0),  # 1 + C10 + 1
                ("split", 2, 2, 4),  # C3 + C3*(1 + C10 + 1)
            ),
            "C3 + C3 + C3*C10 + C3",
        ),
    ],
)
def test_render_text_hand_built_products(expr, text):
    assert render(expr) == oracle_text(expr) == text


def test_render_json_frozen():
    assert "".join(json_pieces(table(("iso", 2)))) == '{"type":"iso","n":2}'
    assert "".join(json_pieces(table(("one",)))) == '{"type":"one"}'
    assert "".join(json_pieces(decompose((2,)))) == (
        '{"type":"sum","terms":[{"type":"iso","n":2},'
        '{"type":"prod","factors":[{"type":"one"},{"type":"one"}]}]}'
    )


def test_render_json_round_trips_structure():
    rows = decompose(christoffel_diagram(4, 6))
    obj = json.loads("".join(json_pieces(rows)))
    assert tree(rows) == obj

    def rebuild(obj):
        # One row per distinct subtree, children built lower part first, as
        # decompose builds the parts of a split.
        spec, index = [], {}

        def visit(node):
            if node["type"] == "sum":
                first, product = node["terms"]
                j_node, k_node = product["factors"]
                k, j, i = visit(k_node), visit(j_node), visit(first)
                key = ("split", i, j, k)
            else:
                key = ("iso", node["n"]) if node["type"] == "iso" else ("one",)
            if key not in index:
                index[key] = len(spec)
                spec.append(key)
            return index[key]

        visit(obj)
        return table(*spec)

    assert rebuild(obj) == rows


def assert_writer_matches_dumps(rows):
    obj = tree(rows)
    assert "".join(json_pieces(rows)) == json.dumps(obj, separators=(",", ":"))
    assert "".join(json_pieces(rows, sort_keys=True)) == json.dumps(obj, sort_keys=True)


def test_json_writer_matches_dumps_on_christoffel_diagrams():
    for a in range(1, 11):
        for b in range(1, 16):
            assert_writer_matches_dumps(decompose(christoffel_diagram(a, b)))


@settings(max_examples=200, deadline=None)
@given(subdiagrams())
def test_json_writer_matches_dumps_on_subdiagrams(mu):
    assert_writer_matches_dumps(decompose(mu))


# Row 3 is C2 + 1*C3; row 5, OUTER, has it both under its sum and its product.
SHARED = (("one",), ("iso", 2), ("iso", 3), ("split", 1, 0, 2))
OUTER = (*SHARED, ("iso", 4), ("split", 3, 3, 4))


@pytest.mark.parametrize(
    "expr",
    [
        table(*OUTER),
        # A shared row inside a shared row: OUTER under the root's product
        # and under row 6's sum, SHARED inside both.
        table(*OUTER, ("split", 5, 3, 0), ("split", 3, 5, 6)),
        table(*SHARED, ("split", 0, 3, 3)),
        table(*SHARED, ("split", 0, 3, 3), ("split", 4, 3, 3)),
        # A split, an iso and the one row as the root's three children.
        table(*SHARED, ("split", 3, 1, 0)),
    ],
    ids=["sum-and-prod", "nested-shared", "prod-x-x", "shared-prod-x-x", "three-children"],
)
def test_json_writer_on_hand_built_dags(expr):
    assert_writer_matches_dumps(expr)


def test_json_writer_joins_a_shared_row_once():
    # Row 3, referenced three times, is joined into one string at its first
    # reference, and every occurrence repeats that very string.
    pieces = json_pieces(table(*SHARED, ("split", 3, 3, 3)))
    text = "".join(json_pieces(table(*SHARED)))
    assert pieces == [
        '{"type":"sum","terms":[', text, ',{"type":"prod","factors":[', text, ",", text, "]}]}"
    ]
    assert pieces[1] is pieces[3] is pieces[5]


def test_json_writer_makes_a_shared_rows_text_once():
    levels = 10  # 3**10 leaves, 11 distinct rows
    rows = table(("iso", 2), *(("split", x, x, x) for x in range(levels)))
    obj = tree(rows)
    for sort_keys, dumps_args in [(False, {"separators": (",", ":")}), (True, {"sort_keys": True})]:
        pieces = json_pieces(rows, sort_keys=sort_keys)
        assert "".join(pieces) == json.dumps(obj, **dumps_args)
        # The root's skeleton around one string, the text of the row below.
        assert len(pieces) == 7
        assert pieces[1] is pieces[3] is pieces[5]


def test_json_writer_matches_dumps_on_random_tables():
    # Every prefix of a table is a table, so each split row is written as a
    # root, and the ways a split's children can coincide are counted.
    rng = random.Random(20151)
    seen = Counter()
    for _ in range(300):
        rows = random_table(rng, rng.randint(1, 9))
        for x, row in enumerate(rows):
            prefix = rows[: x + 1]
            assert_writer_matches_dumps(prefix)
            if row[0] == "split":
                _, _, i, j, k = row
                seen["i = j only"] += i == j != k
                seen["j = k only"] += j == k != i
                seen["i = k only"] += i == k != j
                seen["i = j = k"] += i == j == k
        # The whole table is the last prefix written.
        splits = [(x, row[2], row[3:]) for x, row in enumerate(rows) if row[0] == "split"]
        seen["t_i of one row, a factor of another"] += any(
            p != q and i in factors for p, i, _ in splits for q, _, factors in splits
        )
    cases = ["i = j only", "j = k only", "i = k only", "i = j = k",
             "t_i of one row, a factor of another"]
    assert all(seen[case] for case in cases), seen


def test_json_writer_on_deep_chain_keeps_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("the JSON writer changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    k, leaf = 100_000, '{"type":"iso","n":3}'
    rows = table(("one",), ("iso", 3), *(("split", x, 0, 0) for x in range(1, k + 1)))
    ones = '{"type":"prod","factors":[{"type":"one"},{"type":"one"}]}'
    sorted_leaf = '{"n": 3, "type": "iso"}'
    sorted_ones = '{"factors": [{"type": "one"}, {"type": "one"}], "type": "prod"}'
    for got, want in [
        ("".join(json_pieces(rows)), '{"type":"sum","terms":[' * k + leaf + f",{ones}]}}" * k),
        (
            "".join(json_pieces(rows, sort_keys=True)),
            '{"terms": [' * k + sorted_leaf + f', {sorted_ones}], "type": "sum"}}' * k,
        ),
    ]:
        same = got == want  # a plain bool, so pytest does not diff 2 MB strings
        assert same, f"first difference at offset {len(os.path.commonprefix([got, want]))}"


def test_text_normal_form_is_linear_on_deep_chain():
    # 8,000 summands at depth 8,001: a split that copied its first child's
    # terms would hold about 32 million of them at once.
    tracemalloc.start()
    try:
        text = render(decompose(christoffel_diagram(2, 16000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "C2" + " + 1" * 7999
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"


# ------------------------------------------------------------- properties


@given(st.lists(st.integers(0, 11), max_size=6))
@settings(max_examples=250, deadline=None)
def test_decomposition_sound_hypothesis(rows):
    mu = as_diagram(sorted(rows, reverse=True))
    assert h_value(decompose(mu)) == count_paths(mu)
