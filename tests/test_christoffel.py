"""Staircase box counts, the width-growth profile, and its closed forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcat import (
    christoffel_diagram,
    delta,
    delta_closed_lower,
    delta_closed_upper,
    q_boxes,
    special_r,
)


# ---------------------------------------------------------------- box count


def test_q_boxes_known_values():
    assert q_boxes(3, 5) == 4
    assert q_boxes(6, 9) == 21
    assert q_boxes(1, 1) == 0
    assert q_boxes(1, 7) == 0
    assert q_boxes(2, 2) == 1
    assert q_boxes(4, 6) == 8


def test_q_boxes_equals_row_sum():
    for a in range(1, 61):
        for b in range(1, 61):
            assert q_boxes(a, b) == sum(christoffel_diagram(a, b))


def test_q_boxes_difference_step():
    # widths 8n+6 -> 8n+7 always add exactly 3 boxes
    for n in range(9):
        assert q_boxes(8, 8 * n + 7) - q_boxes(8, 8 * n + 6) == 3


def test_q_boxes_rejects_nonpositive():
    with pytest.raises(ValueError):
        q_boxes(0, 3)


# ------------------------------------------------------------- row profile


def test_delta_known_profiles():
    assert [delta(6, 9, l) for l in range(1, 6)] == [0, 1, 0, 1, 1]
    assert [delta(6, 8, l) for l in range(1, 6)] == [0, 0, 1, 1, 1]
    assert delta(2, 2, 1) == 1
    assert delta(2, 1, 1) == 0


def test_delta_domain():
    with pytest.raises(ValueError, match=r"^need a >= 2 for a nonempty row range, got a=1$"):
        delta(1, 5, 1)  # no interior rows
    with pytest.raises(ValueError, match=r"^width must be positive, got 0$"):
        delta(4, 0, 1)
    with pytest.raises(ValueError, match=r"^row index must lie in \[1, 3\], got 0$"):
        delta(4, 5, 0)
    with pytest.raises(ValueError, match=r"^row index must lie in \[1, 3\], got 4$"):
        delta(4, 5, 4)  # l must stay below a


def test_delta_rows_telescope_to_q_step():
    for a in range(2, 13):
        for b in range(2, 41):
            step = q_boxes(a, b) - q_boxes(a, b - 1)
            assert sum(delta(a, b, l) for l in range(1, a)) == step


@given(st.integers(2, 50), st.integers(1, 200), st.data())
@settings(max_examples=200)
def test_delta_is_zero_or_one(a, b, data):
    l = data.draw(st.integers(1, a - 1))
    assert delta(a, b, l) in (0, 1)


# ------------------------------------------------------------- closed forms


def test_closed_form_examples():
    assert delta_closed_upper(4, 2, 5) == 1
    assert delta_closed_lower(3, 1, 2) == 0
    assert delta_closed_upper(1, 0, 1) == 0
    assert delta_closed_lower(1, 0, 1) == 1


def test_closed_forms_are_step_functions():
    for k in range(1, 9):
        for n in range(9):
            ups = [delta_closed_upper(k, n, l) for l in range(1, 2 * k)]
            lows = [delta_closed_lower(k, n, l) for l in range(1, 2 * k)]
            assert ups == [0] * k + [1] * (k - 1)
            assert lows == [0] * (k - 1) + [1] * k


def test_closed_forms_match_delta_on_families():
    for k in range(1, 9):
        for n in range(9):
            for l in range(1, 2 * k):
                assert delta(2 * k, 2 * k * (n + 1) - 1, l) == delta_closed_upper(k, n, l)
                assert delta(2 * k, 2 * k * n + 2, l) == delta_closed_lower(k, n, l)


def test_closed_form_domain():
    for fn in (delta_closed_upper, delta_closed_lower):
        with pytest.raises(ValueError):
            fn(0, 1, 1)
        with pytest.raises(ValueError):
            fn(2, -1, 1)
        with pytest.raises(ValueError):
            fn(2, 1, 0)
        with pytest.raises(ValueError):
            fn(2, 1, 4)  # l must stay below 2k


# ------------------------------------------------------------- special row


def test_special_r_values():
    assert special_r(2) == 1
    assert special_r(4) == 3
    assert special_r(6) == 5
    for a in range(2, 61):
        assert special_r(a) == a - 1


def test_special_r_floor_property():
    # floor(k(a-1)/a) always lands on k-1 for 0 < k < a
    for a in range(2, 31):
        r = special_r(a)
        for k in range(1, a):
            assert k * r // a == k - 1


def test_special_r_rejects_small_heights():
    with pytest.raises(ValueError):
        special_r(1)
