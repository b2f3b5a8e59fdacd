"""Sum/product rewriting over isosceles staircases and its Catalan evaluation."""

import json
import os
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_isosceles_by_scan, normal_form, subdiagrams_by_filter
from rectcat import (
    Iso,
    One,
    Prod,
    Sum,
    as_diagram,
    catalan,
    christoffel_diagram,
    count_paths,
    count_rect,
    decompose,
    enumerate_paths,
    expr_stats,
    h_value,
    iso_rows,
    max_isosceles,
    render,
    tree,
)
from rectcat import decomposition as decomposition_mod
from rectcat import verify
from rectcat.decomposition import ONE, json_pieces


# ------------------------------------------------------------------ leaves


def test_iso_rows():
    assert iso_rows(1) == ()
    assert iso_rows(2) == (1,)
    assert iso_rows(4) == (3, 2, 1)
    with pytest.raises(ValueError):
        iso_rows(0)


def test_node_validation():
    with pytest.raises(ValueError):
        Iso(0)
    with pytest.raises(ValueError):
        Sum(())
    with pytest.raises(ValueError):
        Prod(())


def test_max_isosceles():
    assert max_isosceles((4, 3, 1)) == 4
    assert max_isosceles(()) == 1
    assert max_isosceles((7, 6, 4, 3, 1)) == 6
    assert max_isosceles((2,)) == 2
    for n in range(1, 11):
        assert max_isosceles(iso_rows(n)) == n


def test_max_isosceles_is_maximal():
    # the next staircase up never fits
    for mu in [(4, 3, 1), (5, 1), (3, 3, 2), (7, 6, 4, 3, 1)]:
        n = max_isosceles(mu)
        grown = iso_rows(n + 1)
        assert any(mu[r - 1] < grown[r - 1] if r <= len(mu) else True for r in range(1, n + 1))


def test_max_isosceles_matches_scan_exhaustive():
    checked = 0
    for a in range(1, 8):
        for b in range(1, 10):
            for rows in subdiagrams_by_filter(christoffel_diagram(a, b)):
                mu = as_diagram(rows)
                assert max_isosceles(mu) == max_isosceles_by_scan(mu), mu
                checked += 1
    assert checked == 3504


# --------------------------------------------------------------- decompose


def test_decompose_base_cases():
    assert decompose(()) == One()
    for n in range(2, 11):
        assert decompose(iso_rows(n)) == Iso(n)


def test_decompose_iso_leaf_exactly_on_staircases_exhaustive():
    for rows in subdiagrams_by_filter(christoffel_diagram(7, 9)):
        mu = as_diagram(rows)
        if mu:
            is_iso = mu == iso_rows(max_isosceles(mu))
            assert isinstance(decompose(mu), Iso) == is_iso, mu


def test_decompose_structure_frozen():
    assert decompose((2,)) == Sum((Iso(2), Prod((One(), One()))))
    assert decompose((4, 3, 1)) == Sum(
        (
            Sum((Iso(4), Prod((Iso(3), One())))),
            Prod((Iso(2), Iso(2))),
        )
    )


def nodes_of(expr):
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Sum):
            stack.extend(node.terms)
        elif isinstance(node, Prod):
            stack.extend(node.factors)
    return out


def leaves_of(expr):
    return [node for node in nodes_of(expr) if isinstance(node, (One, Iso))]


def test_decompose_is_deterministic():
    mu = christoffel_diagram(6, 9)
    first, second = decompose(mu), decompose(mu)
    assert first == second
    # Without a caller's memo nothing outlives a call: the two trees share no
    # node but the constant One.
    ids = [{id(node) for node in nodes_of(expr) if node is not ONE} for expr in (first, second)]
    assert not ids[0] & ids[1]
    # Through one memo, a later call returns the very nodes an earlier one built.
    memo = {}
    assert decompose(mu, memo) == first
    assert memo[mu] is decompose(mu, memo)
    assert all(decompose(nu, memo) is node for nu, node in list(memo.items()))


def test_decompose_on_deep_staircase_keeps_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("decompose changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert h_value(decompose(christoffel_diagram(2, 60000))) == count_rect(2, 60000)


def test_decomposition_sweep_memo_keeps_faults_visible(monkeypatch):
    clean = verify.check_decomposition(3, 4)
    assert clean.passed
    monkeypatch.setattr(decomposition_mod, "catalan", lambda n: catalan(n) + 1)
    faulty = verify.check_decomposition(3, 4)
    assert faulty.cells == clean.cells
    # Every nonempty diagram has an Iso leaf, so only the empty one still passes.
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
    memo, paths = {}, enumerate_paths(5, 7)
    values = [h_value(decompose(mu, memo)) for _, mu in paths]
    assert sorted(calls) == sorted(nd.n for nd in memo.values() if isinstance(nd, Iso))
    # A second pass returns the very nodes the first built, values and all.
    calls.clear()
    assert [h_value(decompose(mu, memo)) for _, mu in paths] == values
    assert calls == []
    for (_, mu), value in zip(paths, values):
        assert value == h_value(decompose(mu)) == count_paths(mu)


def test_decomposition_sweep_memo_lives_for_one_call(monkeypatch):
    memos = []

    def spy(mu, memo=None):  # note each memo the first time it is seen
        if not any(memo is seen for seen in memos):
            assert memo == {}
            memos.append(memo)
        return decompose(mu, memo)

    monkeypatch.setattr(decomposition_mod, "decompose", spy)
    assert verify.check_decomposition(3, 4).passed
    assert verify.check_decomposition(3, 4).passed
    assert len(memos) == 2


def test_value_is_not_part_of_identity(monkeypatch):
    clean = Iso(3)
    monkeypatch.setattr(decomposition_mod, "catalan", lambda n: 0)
    faulty = Iso(3)
    assert faulty.value != clean.value
    assert faulty == clean
    assert hash(faulty) == hash(clean)
    assert repr(Sum((Iso(2), One()))) == "Sum(terms=(Iso(n=2), One()))"


def test_decompose_leaf_purity():
    for a, b in [(4, 6), (6, 9), (5, 7), (6, 8)]:
        for leaf in leaves_of(decompose(christoffel_diagram(a, b))):
            assert isinstance(leaf, (One, Iso))


# ------------------------------------------------------------- evaluation


def test_h_value_known():
    assert h_value(One()) == 1
    assert h_value(Iso(3)) == 5
    assert h_value(Sum((Iso(2), One()))) == 3
    assert h_value(Prod((Iso(2), Iso(3)))) == 10
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
            paths_by_rect[a, b] = enumerate_paths(a, b)
        _, mu = rng.choice(paths_by_rect[a, b])
        assert h_value(decompose(mu)) == count_paths(mu)


# ------------------------------------------------------------------ stats


def test_expr_stats_known():
    assert expr_stats(One()) == (1, 1, 1)
    assert expr_stats(Iso(5)) == (1, 1, 1)
    assert expr_stats(decompose((4, 3, 1))) == (3, 5, 4)
    assert expr_stats(Sum((Iso(2), Prod((Iso(2), One()))))) == (2, 3, 3)


def test_expr_stats_summands_match_rendered_terms():
    for a, b in [(4, 6), (6, 9), (6, 8), (5, 7)]:
        expr = decompose(christoffel_diagram(a, b))
        summands, leaves, depth = expr_stats(expr)
        assert summands == render(expr, "text").count(" + ") + 1
        assert leaves == len(leaves_of(expr))
        assert depth >= 1


# ----------------------------------------------------------------- render


def test_render_text_frozen():
    assert render(decompose((4, 3, 1))) == "C4 + C3 + C2*C2"
    assert render(decompose((2,))) == "C2 + 1"
    assert render(One()) == "1"
    assert render(Iso(7)) == "C7"
    assert render(Prod((One(), One()))) == "1"


def test_render_text_distributes_products():
    expr = Prod((Sum((Iso(2), One())), Iso(3)))
    assert render(expr, "text") == "C2*C3 + C3"


def oracle_text(expr) -> str:
    return " + ".join("*".join(term) or "1" for term in normal_form(expr))


def test_render_text_matches_normal_form_oracle():
    for a in range(1, 9):
        for b in range(1, 13):
            expr = decompose(christoffel_diagram(a, b))
            assert render(expr, "text") == oracle_text(expr)


@st.composite
def subdiagrams(draw, max_a=8, max_b=12):
    a = draw(st.integers(1, max_a))
    b = draw(st.integers(1, max_b))
    rows = []
    for top in christoffel_diagram(a, b):
        rows.append(draw(st.integers(0, min([top, *rows[-1:]]))))
    return as_diagram(rows)


@settings(max_examples=200, deadline=None)
@given(subdiagrams())
def test_render_text_matches_normal_form_oracle_on_subdiagrams(mu):
    expr = decompose(mu)
    assert render(expr, "text") == oracle_text(expr)


@pytest.mark.parametrize(
    "expr, text",
    [
        (Prod((One(), One())), "1"),
        (Prod((One(), One(), One())), "1"),
        (Prod((Iso(2), Iso(3), Iso(4))), "C2*C3*C4"),
        (Prod((One(), Iso(3), One())), "C3"),
        (
            Prod((Sum((Iso(2), One())), Sum((One(), Iso(3))), Sum((Iso(4), Iso(5))))),
            "C2*C4 + C2*C5 + C2*C3*C4 + C2*C3*C5 + C4 + C5 + C3*C4 + C3*C5",
        ),
        (Sum((Prod((One(), One())), Iso(2), One())), "1 + C2 + 1"),
    ],
)
def test_render_text_hand_built_products(expr, text):
    assert render(expr, "text") == oracle_text(expr) == text


def test_render_json_frozen():
    assert render(Iso(2), "json") == '{"type":"iso","n":2}'
    assert render(One(), "json") == '{"type":"one"}'
    assert render(decompose((2,)), "json") == (
        '{"type":"sum","terms":[{"type":"iso","n":2},'
        '{"type":"prod","factors":[{"type":"one"},{"type":"one"}]}]}'
    )


def test_render_json_round_trips_structure():
    expr = decompose(christoffel_diagram(4, 6))
    obj = json.loads(render(expr, "json"))
    assert tree(expr) == obj

    def rebuild(node):
        if node["type"] == "one":
            return One()
        if node["type"] == "iso":
            return Iso(node["n"])
        if node["type"] == "sum":
            return Sum(tuple(rebuild(t) for t in node["terms"]))
        return Prod(tuple(rebuild(f) for f in node["factors"]))

    assert rebuild(obj) == expr


def assert_writer_matches_dumps(expr):
    obj = tree(expr)
    assert render(expr, "json") == json.dumps(obj, separators=(",", ":"))
    assert "".join(json_pieces(expr, sort_keys=True)) == json.dumps(obj, sort_keys=True)


def test_json_writer_matches_dumps_on_christoffel_diagrams():
    for a in range(1, 11):
        for b in range(1, 16):
            assert_writer_matches_dumps(decompose(christoffel_diagram(a, b)))


@settings(max_examples=200, deadline=None)
@given(subdiagrams())
def test_json_writer_matches_dumps_on_subdiagrams(mu):
    assert_writer_matches_dumps(decompose(mu))


SHARED = Sum((Iso(2), Prod((One(), Iso(3)))))
OUTER = Sum((SHARED, Prod((SHARED, Iso(4)))))  # SHARED under a Sum and a Prod


@pytest.mark.parametrize(
    "expr",
    [
        OUTER,
        Prod((OUTER, Sum((OUTER, SHARED)))),  # a shared node inside a shared node
        Prod((SHARED, SHARED)),
        Sum((Prod((SHARED, SHARED)), Prod((SHARED, SHARED)))),
        Sum((Prod((Iso(2), SHARED, Iso(4))), One(), SHARED)),
    ],
    ids=["sum-and-prod", "nested-shared", "prod-x-x", "shared-prod-x-x", "three-children"],
)
def test_json_writer_on_hand_built_dags(expr):
    assert_writer_matches_dumps(expr)


def test_json_writer_writes_a_shared_node_once():
    # The first occurrence is written as its own pieces; the second joins
    # them once, and every later occurrence repeats that very string.
    pieces = json_pieces(Prod((SHARED, SHARED, SHARED)))
    own = json_pieces(SHARED)
    text, k = "".join(own), len(own)
    assert pieces == ['{"type":"prod","factors":[', *own, ",", text, ",", text, "]}"]
    assert pieces[k + 4] is pieces[k + 2]


def test_json_writer_walks_a_shared_node_once():
    x = Iso(2)
    for _ in range(16):
        x = Sum((x, x))  # 2**16 leaves, 17 distinct nodes
    obj = tree(x)
    for sort_keys, dumps_args in [(False, {"separators": (",", ":")}), (True, {"sort_keys": True})]:
        pieces = json_pieces(x, sort_keys=sort_keys)
        assert "".join(pieces) == json.dumps(obj, **dumps_args)
        assert len(pieces) <= 4 * 16 + 1


def test_json_writer_on_deep_chain_keeps_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("the JSON writer changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    k, leaf = 100_000, '{"type":"iso","n":3}'
    expr = Iso(3)
    for _ in range(k):
        expr = Sum((expr, One()))
    sorted_leaf = '{"n": 3, "type": "iso"}'
    for got, want in [
        (render(expr, "json"), '{"type":"sum","terms":[' * k + leaf + ',{"type":"one"}]}' * k),
        (
            "".join(json_pieces(expr, sort_keys=True)),
            '{"terms": [' * k + sorted_leaf + ', {"type": "one"}], "type": "sum"}' * k,
        ),
    ]:
        same = got == want  # a plain bool, so pytest does not diff 2 MB strings
        assert same, f"first difference at offset {len(os.path.commonprefix([got, want]))}"


def test_text_normal_form_is_linear_on_deep_chain():
    # 8,000 summands at depth 8,001: a Sum that copied its children's terms
    # would hold about 32 million of them at once.
    tracemalloc.start()
    try:
        text = render(decompose(christoffel_diagram(2, 16000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "C2" + " + 1" * 7999
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(One(), "xml")


# ------------------------------------------------------------- properties


@given(st.lists(st.integers(0, 11), max_size=6))
@settings(max_examples=250, deadline=None)
def test_decomposition_sound_hypothesis(rows):
    mu = as_diagram(sorted(rows, reverse=True))
    assert h_value(decompose(mu)) == count_paths(mu)
