"""Diagram encoding, the word bijection, the counting DP, and enumeration."""

import json
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    count_by_filter,
    count_subdiagrams,
    depth_by_cost,
    subdiagrams_by_filter,
    walk_by_odometer,
    words_by_filter,
)
from rectcat import (
    TooLarge,
    as_diagram,
    catalan,
    christoffel_diagram,
    coprime_catalan,
    count_paths,
    count_rect,
    decompose,
    diagram_to_word,
    enumerate_paths,
    format_diagram,
    is_valid_word,
    parse_diagram,
    word_to_diagram,
)
from rectcat import diagrams


# ---------------------------------------------------------------- diagrams


def test_as_diagram_normalizes():
    assert as_diagram([4, 3, 1]) == (4, 3, 1)
    assert as_diagram((4, 3, 1, 0, 0)) == (4, 3, 1)
    assert as_diagram([]) == ()
    assert as_diagram([0, 0]) == ()
    assert as_diagram([3, 3, 3]) == (3, 3, 3)


def test_as_diagram_rejects_bad_rows():
    with pytest.raises(ValueError):
        as_diagram([3, -1])
    with pytest.raises(ValueError):
        as_diagram([3, 4])  # increasing bottom-up
    # The first offending row, read bottom-up, picks the message.
    with pytest.raises(ValueError, match=r"^negative row length -1 in \(0, -1\)$"):
        as_diagram([0, -1])
    decreasing = r"^rows must be weakly decreasing bottom-up, got \(1, 2, -1\)$"
    with pytest.raises(ValueError, match=decreasing):
        as_diagram([1, 2, -1])
    with pytest.raises(ValueError, match="^negative row length -2 in"):
        as_diagram([-2, 5])


@pytest.mark.parametrize("row", [2.5, 1.0, Fraction(5, 2), Fraction(2), "2"])
def test_as_diagram_rejects_non_integer_rows(row):
    # Refused whatever the value, not truncated or parsed, as count_rect
    # refuses a float side.
    with pytest.raises(TypeError):
        as_diagram((row,))
    with pytest.raises(TypeError):
        as_diagram((3, row))
    with pytest.raises(TypeError):
        count_paths([row])
    with pytest.raises(TypeError):
        decompose((row,))


def test_as_diagram_is_linear_in_trailing_zeros():
    # Stripping the zeros one slice at a time is quadratic: over a minute at this size.
    start = time.perf_counter()
    assert as_diagram((1,) + (0,) * 200_000) == (1,)
    assert time.perf_counter() - start < 1.0


def test_parse_and_format_diagram():
    assert parse_diagram("7,6,4,3,1") == (7, 6, 4, 3, 1)
    assert parse_diagram("  4,3,1  ") == (4, 3, 1)
    assert parse_diagram("") == ()
    assert format_diagram((7, 6, 4, 3, 1)) == "7,6,4,3,1"
    assert format_diagram(()) == ""
    assert parse_diagram(format_diagram((4, 3, 1))) == (4, 3, 1)


def test_parse_diagram_rejects_garbage():
    with pytest.raises(ValueError):
        parse_diagram("1,x")
    with pytest.raises(ValueError):
        parse_diagram("3,4")


def test_christoffel_examples():
    assert christoffel_diagram(6, 9) == (7, 6, 4, 3, 1)
    assert christoffel_diagram(4, 6) == (4, 3, 1)
    assert christoffel_diagram(3, 5) == (3, 1)
    assert christoffel_diagram(1, 5) == ()
    assert christoffel_diagram(2, 2) == (1,)
    assert christoffel_diagram(5, 5) == (4, 3, 2, 1)


def test_christoffel_row_formula():
    # row r holds floor(b*(a-r)/a) boxes, trailing zeros dropped; b < a has
    # zero rows to drop, and a = 1 or b = 1 gives the empty diagram
    for a in range(1, 41):
        for b in range(1, 41):
            full = [b * (a - r) // a for r in range(1, a)]
            assert christoffel_diagram(a, b) == as_diagram(full)


def test_rect_validation():
    for a, b in [(0, 5), (5, 0), (-3, 5), (5, -3)]:
        with pytest.raises(ValueError):
            christoffel_diagram(a, b)
    with pytest.raises(ValueError):
        count_rect(3, 0)


# ------------------------------------------------------------------ words


def test_is_valid_word():
    assert is_valid_word(2, 2, "0011")
    assert is_valid_word(2, 2, "0101")
    assert not is_valid_word(2, 2, "0110")
    assert not is_valid_word(2, 2, "1001")


def test_is_valid_word_exhaustive():
    # every arrangement of a downs and b rights, against the brute-force filter
    for a in range(1, 7):
        for b in range(1, 7):
            valid = set(words_by_filter(a, b))
            for downs in combinations(range(a + b), a):
                word = "".join("0" if i in downs else "1" for i in range(a + b))
                assert is_valid_word(a, b, word) == (word in valid)
                if word not in valid:
                    with pytest.raises(ValueError):
                        word_to_diagram(a, b, word)


def test_is_valid_word_rejects_malformed():
    with pytest.raises(ValueError):
        is_valid_word(2, 2, "0021")
    with pytest.raises(ValueError):
        is_valid_word(2, 2, "00111")  # wrong letter counts


def test_word_diagram_examples():
    assert word_to_diagram(2, 2, "0011") == ()
    assert word_to_diagram(2, 2, "0101") == (1,)
    assert word_to_diagram(4, 6, "0101101011") == (4, 3, 1)
    assert diagram_to_word(4, 6, (4, 3, 1)) == "0101101011"
    assert diagram_to_word(6, 9, christoffel_diagram(6, 9)) == "010110101101011"
    assert diagram_to_word(1, 4, ()) == "01111"


def test_word_to_diagram_rejects_invalid_path():
    with pytest.raises(ValueError):
        word_to_diagram(2, 2, "0110")


def test_diagram_to_word_rejects_oversized():
    # A row too long, a top row past floor(6/4), too many rows: one message.
    for a, b, mu in [(4, 6, (5, 3, 1)), (4, 6, (4, 3, 2)), (2, 2, (1, 1))]:
        with pytest.raises(ValueError, match=rf"^diagram \({mu[0]}, .* does not fit the {a}x{b} "):
            diagram_to_word(a, b, mu)
    with pytest.raises(ValueError, match="^negative row length"):
        diagram_to_word(4, 6, (3, -1))


def test_diagram_to_word_normalizes_once(monkeypatch):
    seen = []

    def spy(rows):
        seen.append(rows)
        return as_diagram(rows)

    monkeypatch.setattr(diagrams, "as_diagram", spy)
    assert diagram_to_word(4, 6, [4, 3, 1, 0]) == "0101101011"
    assert seen == [[4, 3, 1, 0]]


def test_round_trip_exhaustive():
    # exhaustive bijection check: every word maps to a distinct diagram and back
    for a in range(1, 9):
        for b in range(1, 9):
            seen = set()
            for word, mu in enumerate_paths(a, b):
                assert mu == word_to_diagram(a, b, word)
                assert mu not in seen
                seen.add(mu)
                assert diagram_to_word(a, b, mu) == word
            assert len(seen) == count_rect(a, b)


def test_round_trip_from_diagrams():
    for a in range(1, 7):
        for b in range(1, 8):
            for rows in subdiagrams_by_filter(christoffel_diagram(a, b)):
                mu = as_diagram(rows)
                assert word_to_diagram(a, b, diagram_to_word(a, b, mu)) == mu


# --------------------------------------------------------------- counting


def test_count_paths_known_values():
    assert count_paths(()) == 1
    assert count_paths((2,)) == 3
    assert count_paths((3, 1)) == 7
    assert count_paths((4, 2, 1)) == 19
    assert count_paths((4, 3, 1)) == 23
    assert count_paths((7, 6, 4, 3, 1)) == 377
    assert count_paths((6, 5, 4, 2, 1)) == 227


def test_count_paths_sums_the_last_rows_pad():
    # The last row's pad is only summed, never built: one row of any length
    # answers at once, and a second row's pad past an index is refused.
    start = time.perf_counter()
    assert count_paths((10**20,)) == 10**20 + 1
    assert count_paths((10**20, 1)) == 10**20 * 2 + 1
    assert time.perf_counter() - start < 1
    with pytest.raises(OverflowError):
        count_paths((10**20, 10**20))
    assert count_rect(2, 10**23) == 5 * 10**22 + 1


def test_count_rect_known_values():
    assert count_rect(4, 6) == 23
    assert count_rect(6, 8) == 227
    assert count_rect(6, 9) == 377
    assert count_rect(1, 7) == 1
    assert count_rect(7, 1) == 1


def test_count_paths_vs_filter_oracle():
    for a in range(1, 6):
        for b in range(1, 8):
            mu = christoffel_diagram(a, b)
            assert count_paths(mu) == count_subdiagrams(mu)
    # not just staircases: arbitrary diagrams too
    for mu in [(2, 2), (3, 3, 3), (5, 1), (4, 4, 2, 1)]:
        assert count_paths(mu) == count_subdiagrams(mu)


@given(st.lists(st.integers(0, 9), max_size=6).map(lambda rows: sorted(rows, reverse=True)))
@example([9, 9, 9, 9, 9, 9])
@example([9, 0, 0])
@example([9, 1, 1, 1])
@example([9, 9, 1])
@settings(max_examples=60, deadline=None)
def test_count_paths_vs_filter_oracle_on_any_diagram(rows):
    # Equal adjacent rows, long jumps and trailing zeros all come up; the
    # filter counts the zero rows' single filling, as_diagram drops them.
    assert count_paths(rows) == count_subdiagrams(rows)


@pytest.mark.parametrize("p, q", [(101, 150), (150, 101), (1, 500), (500, 1), (97, 389)])
def test_count_rect_on_large_coprime_rectangles(p, q):
    assert count_rect(p, q) == coprime_catalan(p, q)


def test_count_paths_peeling_recurrence():
    # independent route: fix the top row of the sub-filling at x, then the
    # remaining rows are a filling of the lower rows shifted left by x
    def peeled(mu):
        if not mu:
            return 1
        return sum(
            peeled(tuple(r - x for r in mu[:-1])) for x in range(mu[-1] + 1)
        )

    for a in range(1, 6):
        for b in range(1, 6):
            mu = christoffel_diagram(a, b)
            assert count_paths(mu) == peeled(mu)


def test_count_rect_vs_word_filter():
    for a in range(1, 7):
        for b in range(1, 7):
            assert count_rect(a, b) == count_by_filter(a, b)


def test_count_rect_transpose_symmetry():
    for a in range(1, 13):
        for b in range(1, 13):
            assert count_rect(a, b) == count_rect(b, a)


def test_count_rect_squares_are_catalan():
    for n in range(1, 11):
        assert count_rect(n, n) == catalan(n)


# ------------------------------------------------------------ enumeration


def test_enumerate_examples():
    assert list(enumerate_paths(2, 2)) == [("0011", ()), ("0101", (1,))]
    assert list(enumerate_paths(2, 3)) == [("00111", ()), ("01011", (1,))]
    assert list(enumerate_paths(1, 4)) == [("01111", ())]
    assert list(enumerate_paths(3, 3)) == [
        ("000111", ()),
        ("001011", (1,)),
        ("001101", (2,)),
        ("010011", (1, 1)),
        ("010101", (2, 1)),
    ]


def test_enumerate_matches_filter_oracle_with_order():
    for a in range(1, 6):
        for b in range(1, 6):
            assert [word for word, _ in enumerate_paths(a, b)] == words_by_filter(a, b)


def test_enumerate_counts_match_oracle():
    for a in range(1, 7):
        for b in range(1, 7):
            assert len(list(enumerate_paths(a, b))) == count_rect(a, b)


LONG_RECTANGLES = [(130, 3), (3, 160), (60, 4), (2, 1200), (1, 1500)]


@pytest.mark.parametrize("a, b", LONG_RECTANGLES)
def test_enumerate_pairs_on_long_rectangles(a, b):
    paths = list(enumerate_paths(a, b))
    assert len(paths) == count_rect(a, b)
    for word, mu in paths:
        assert word == diagram_to_word(a, b, mu)
    assert all(x < y for (x, _), (y, _) in zip(paths, paths[1:]))


def test_enumerate_long_thin_rectangle():
    # a 1501-letter word: a walk that recurses once per letter overflows the stack
    assert list(enumerate_paths(1, 1500)) == [("0" + "1" * 1500, ())]


def test_enumerate_cap():
    with pytest.raises(TooLarge) as exc:
        enumerate_paths(4, 4, cap=10)
    assert (exc.value.what, exc.value.size) == ("paths", 14)
    assert exc.value.cap == 10
    assert str(exc.value) == "too many paths: 14 exceeds the cap of 10"
    assert len(list(enumerate_paths(4, 4, cap=14))) == 14  # cap is inclusive


def test_enumerate_refuses_when_called():
    # Every refusal comes from the call itself, not from the first next().
    with pytest.raises(TooLarge):
        enumerate_paths(4, 4, cap=10)
    with pytest.raises(OverflowError):
        enumerate_paths(1, 10**20)
    with pytest.raises(OverflowError):
        enumerate_paths(10**20, 1)
    with pytest.raises(ValueError, match="^form must be None, 'text' or 'json', got ','$"):
        enumerate_paths(2, 2, form=",")


def test_spliced_diagrams_are_the_words_diagrams():
    # Each diagram is spliced from the one before; every form must give the word's own.
    rects = [(a, b) for a in range(1, 9) for b in range(1, 13)] + LONG_RECTANGLES
    for a, b in rects:
        pairs = list(enumerate_paths(a, b))
        for word, mu in pairs:
            assert mu == word_to_diagram(a, b, word)
        lines = "".join(enumerate_paths(a, b, form="text")[1]).splitlines()
        assert [line.split(" ")[0] for line in lines] == [word for word, _ in pairs]
        assert [parse_diagram(line.partition(" ")[2]) for line in lines] == [mu for _, mu in pairs]
        items = json.loads("".join(enumerate_paths(a, b, form="json")[1]))
        assert [(item["word"], tuple(item["diagram"])) for item in items] == pairs


def traced_peak(a, b, form):
    """The most memory traced while enumerate_paths(a, b, form=form) is consumed."""
    tracemalloc.start()
    try:
        for _ in enumerate_paths(a, b, form=form)[1]:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumerate_streams_in_constant_memory():
    # 15,001 words of 30,002 letters, about 450 MB if all were held at once.
    for form in ["text", "json"]:
        assert traced_peak(2, 30000, form) < 4 * 2**20, form


# Shapes whose chosen depths run from 0 (a long word, few paths) to deep
# tables (a tall, narrow staircase), and small counts that table too.
DEPTH_SHAPES = [
    (3, 177), (4, 67), (5, 37), (13, 9), (23, 6), (33, 5), (61, 4), (133, 3), (2, 3000),
    (10, 3), (11, 3), (12, 3), (13, 3), (14, 3), (100, 2),
]
FORMS = [None, "text", "json"]


def listed(a, b, form):
    """enumerate_paths' pairs as a list, or its line form's pieces joined.

    A line form's count is the oracle's, and every text piece is whole lines,
    so it ends with a line end.
    """
    if form is None:
        return list(enumerate_paths(a, b))
    total, pieces = enumerate_paths(a, b, form=form)
    assert total == count_rect(a, b), (a, b)
    pieces = list(pieces)
    if form == "text":
        assert all(piece.endswith("\n") for piece in pieces), (a, b)
    return "".join(pieces)


def reference(a, b, form):
    """The reference walk's pairs, or the text of the line form written from them."""
    pairs = list(walk_by_odometer(a, b, "0" * a + "1" * b))
    if form is None:
        return pairs
    if form == "text":
        return "".join(f"{w} {','.join(map(str, mu))}\n" if mu else f"{w}\n" for w, mu in pairs)
    return json.dumps([{"diagram": list(mu), "word": w} for w, mu in pairs])


@pytest.mark.parametrize("form", FORMS, ids=["tuple", "text", "json"])
def test_enumerate_matches_the_reference_walk(form):
    rects = [(a, b) for a in range(1, 10) for b in range(1, 14)] + DEPTH_SHAPES
    for a, b in rects:
        assert listed(a, b, form) == reference(a, b, form), (a, b)


def test_enumerate_chooses_several_depths():
    depths = set()
    for a, b in DEPTH_SHAPES:
        depths.add(diagrams._depth(a, b, diagrams._heads(a, b)))
    assert 0 in depths and len(depths) >= 4, depths


def test_depth_is_the_cheapest_within_the_letters_budget():
    # Every shape of at most 10**6 paths in a small grid, wide rectangles and
    # tall ones: the early exits of _depth's one loop change no depth.
    shapes = (
        [(a, b) for a in range(1, 31) for b in range(1, 46)]
        + [(a, b) for a in range(2, 12) for b in range(100, 3001, 211)]
        + [(a, b) for a in range(100, 951, 150) for b in range(2, 5)]
    )
    for a, b in shapes:
        heads = diagrams._heads(a, b)
        if heads[-1] <= 10**6:
            assert diagrams._depth(a, b, heads) == depth_by_cost(a, b), (a, b)


def test_enumerate_counts_once(monkeypatch):
    # One forward count sizes the walk and gives the cap its count: the
    # number of paths is its last entry, and enumerate_paths asks count_paths
    # nothing.
    for a in range(1, 10):
        for b in range(1, 14):
            assert diagrams._heads(a, b)[-1] == count_rect(a, b), (a, b)
    monkeypatch.setattr(diagrams, "count_paths", None)
    with pytest.raises(TooLarge, match="^too many paths: 227 exceeds the cap of 226$"):
        enumerate_paths(6, 8, cap=226)
    assert len(list(enumerate_paths(13, 9))) == 22610


def test_heads_count_the_word_prefixes_at_every_level():
    # _heads(a, b)[j] is the number of settings over the first z + j down
    # steps, z = ceil(a/b): the distinct prefixes of the words through that
    # down step.  _depth weighs every level by it.
    for a in range(1, 9):
        for b in range(1, 13):
            z = -(-a // b)
            words = words_by_filter(a, b)
            downs = [[i for i, letter in enumerate(w) if letter == "0"] for w in words]
            prefixes = [
                len({w[: d[p - 1] + 1] for w, d in zip(words, downs)}) for p in range(z, a + 1)
            ]
            assert diagrams._heads(a, b) == prefixes, (a, b)


def test_tuple_form_is_one_setting_a_path(monkeypatch):
    # Tuples never come from tables: the tuple form walks the odometer over
    # every down step and never asks _depth.
    monkeypatch.setattr(diagrams, "_depth", None)
    for a, b in DEPTH_SHAPES:
        assert listed(a, b, None) == reference(a, b, None), (a, b)


def test_every_depth_matches_the_reference_walk(monkeypatch):
    # Whatever depth the cost model picks, the lines are the same.  The tuple
    # form never asks _depth: test_tuple_form_is_one_setting_a_path.
    for a, b in [(1, 5), (4, 6), (6, 4), (5, 8), (9, 4), (7, 7)]:
        for k in range(a):
            monkeypatch.setattr(diagrams, "_depth", lambda *args: k)
            for form in ["text", "json"]:
                assert listed(a, b, form) == reference(a, b, form), (a, b, k)


@pytest.mark.parametrize("a, b", [(3, 177), (13, 9), (23, 6), (61, 4), (3, 400)])
def test_enumerate_tables_stay_small(a, b):
    # The tables of completions are kept for the whole walk.  At 3x400 the
    # letters budget, not the cost, keeps them out: unbounded, the cheapest
    # depth holds 13 MiB of tables.
    for form in ["text", "json"]:
        assert traced_peak(a, b, form) < 4 * 2**20, form


def test_enumerate_refuses_past_the_letters_cap():
    with pytest.raises(TooLarge) as exc:
        enumerate_paths(1, 10**12)
    assert (exc.value.what, exc.value.size) == ("letters", 10**12 + 2)
    assert exc.value.cap == diagrams.CAPS["letters"]
    assert str(exc.value) == (
        f"too many letters: {10**12 + 2} exceeds the cap of {diagrams.CAPS['letters']}"
    )
    # 15,001 words of 30,002 letters and a newline each: about 4.5e8 letters.
    assert 15001 * 30003 <= diagrams.CAPS["letters"]
    next(enumerate_paths(2, 30000))


def test_every_refusal_is_one_too_large():
    # One class refuses every size; admit reads CAPS unless given a cap.
    assert issubclass(TooLarge, ValueError)
    with pytest.raises(TooLarge, match="^too many letters: "):
        enumerate_paths(1, 10**12)
    for what, cap in diagrams.CAPS.items():
        diagrams.admit(what, cap)
        with pytest.raises(TooLarge) as exc:
            diagrams.admit(what, cap + 1)
        assert (exc.value.what, exc.value.size, exc.value.cap) == (what, cap + 1, cap)
        diagrams.admit(what, 7, 7)
        with pytest.raises(TooLarge, match=f"^too many {what}: 8 exceeds the cap of 7$"):
            diagrams.admit(what, 8, 7)
    # A size of 5,001 digits, past the 4300 that str() converts on Python 3.11+,
    # is still refused as itself and stated in full.
    huge = 10**5000
    with pytest.raises(TooLarge) as exc:
        diagrams.admit("paths", huge)
    for err, cap in [(exc.value, diagrams.CAPS["paths"]), (TooLarge("paths", huge, 10), 10)]:
        assert (err.size, err.cap) == (huge, cap)
        assert str(err) == f"too many paths: 1{'0' * 5000} exceeds the cap of {cap}"


def test_enumerate_cap_env(monkeypatch):
    # The cap is an argument only: RECTCAT_MAX_ENUM is the enumerate command's.
    for value in ["4", "not-a-number"]:
        monkeypatch.setenv("RECTCAT_MAX_ENUM", value)
        words = [word for word, _ in enumerate_paths(3, 3)]
        assert words == words_by_filter(3, 3) and len(words) == 5


def test_rectangle_checked_before_other_inputs():
    # A bad rectangle is reported ahead of a bad diagram or a bad cap.
    bad_rect = "^rectangle sides must be positive integers, got 0x3$"
    with pytest.raises(ValueError, match=bad_rect):
        diagram_to_word(0, 3, (-1,))
    with pytest.raises(ValueError, match=bad_rect):
        enumerate_paths(0, 3, cap=-1)


# ------------------------------------------------------------- properties


@st.composite
def rect_and_word(draw):
    a = draw(st.integers(1, 8))
    b = draw(st.integers(1, 8))
    downs = rights = 0
    out = []
    while downs < a or rights < b:
        can_down = downs < a
        can_right = rights < b and b * downs >= a * (rights + 1)
        if can_down and can_right:
            step = draw(st.sampled_from("01"))
        else:
            step = "0" if can_down else "1"
        out.append(step)
        if step == "0":
            downs += 1
        else:
            rights += 1
    return a, b, "".join(out)


@given(rect_and_word())
@settings(max_examples=200)
def test_random_walk_round_trip(case):
    a, b, word = case
    assert is_valid_word(a, b, word)
    assert diagram_to_word(a, b, word_to_diagram(a, b, word)) == word


@given(st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=100)
def test_count_monotone_in_both_sides(a, b):
    assert count_rect(a, b + 1) >= count_rect(a, b)
    assert count_rect(a + 1, b) >= count_rect(a, b)
