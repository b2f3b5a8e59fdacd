"""Corner splitting and the two closed-form theorems for even heights.

through_box_split is the workhorse recurrence: at the outer-corner box ending
row r it returns (slimmed, upper, lower).  The paths avoiding the box live in
slimmed, the diagram without it; the paths through it factor into upper and
lower, two independent smaller staircases.  Summing coprime products of the
upper-times-lower shape over the families b = a(n+1) - 2 (upper) and
b = an + 2 (lower), a = 2k, yields closed forms for rectangles whose sides
share only the factor 2: theorem1_count subtracts the products from the
coprime count one width up, theorem2_count adds them to the coprime count one
width down.  theorem_fit tells which family, if either, a rectangle belongs to.
"""

from __future__ import annotations

from math import perm

from .diagrams import Diagram, as_diagram
from .formulas import _exact_div

Rect = tuple[int, int]
TermList = list[tuple[Rect, Rect]]


def through_box_split(mu, r: int) -> tuple[Diagram, Diagram, Diagram]:
    """Split ``mu`` at the outer-corner box ending row ``r`` (1-based, bottom-up).

    Returns (slimmed, upper, lower): slimmed is ``mu`` with row r one box
    shorter (a row left empty is dropped), upper keeps the rows above r
    unchanged, lower keeps the rows below r with the first mu_r columns
    deleted.  The counting contract is

        count_paths(mu) == count_paths(slimmed) + count_paths(upper) * count_paths(lower).
    """
    mu = as_diagram(mu)
    if not 1 <= r <= len(mu):
        raise ValueError(f"row {r} out of range for a {len(mu)}-row diagram")
    j = mu[r - 1]
    beyond = mu[r] if r < len(mu) else 0
    if j <= beyond:
        raise ValueError(f"row {r} of {mu} does not end in an outer corner")
    return _through_box_split(mu, r)


def _through_box_split(mu: Diagram, r: int) -> tuple[Diagram, Diagram, Diagram]:
    # Only a top row of one box shrinks to zero.  The rows below r are at least
    # j = mu_r and weakly decrease, so those shifting down to zero are a suffix.
    j = mu[r - 1]
    below, upper = mu[: r - 1], mu[r:]
    return below + (j - 1,) * (j > 1) + upper, upper, tuple([x - j for x in below if x > j])


def theorem_fit(a: int, b: int) -> tuple[str, int, int] | None:
    """(family, k, n) when a = 2k and b = a(n+1) - 2 (upper) or b = an + 2 (lower)."""
    if a < 2 or a % 2:
        return None
    if (b + 2) % a == 0 and (b + 2) // a >= 1:
        return "upper", a // 2, (b + 2) // a - 1
    if (b - 2) % a == 0 and (b - 2) // a >= 1:
        return "lower", a // 2, (b - 2) // a
    return None


def rule2_terms(a: int, family: str, n: int) -> TermList:
    """Coprime rectangle pairs whose count products bridge adjacent widths.

    For a = 2k the sum of count products over the returned pairs equals

        upper (b = a(n+1) - 2):  count(a, b+1) - count(a, b),
        lower (b = an + 2):      count(a, b)   - count(a, b-1).

    The upper family needs n >= 1 once k >= 2: at n = 0 its j = 1 pair would
    degenerate to a rectangle of width zero.
    """
    if a < 2 or a % 2:
        raise ValueError(f"height must be even and at least 2, got {a}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    k = a // 2
    if family == "upper":
        if n == 0 and k >= 2:
            raise ValueError("n = 0 degenerates the j = 1 factor to width zero")
        return [
            ((j, j * (n + 1) - 1), (a - j, (a - j) * (n + 1) - 1))
            for j in range(1, k)
        ]
    if family == "lower":
        return [((j, j * n + 1), (a - j, (a - j) * n + 1)) for j in range(1, k + 1)]
    raise ValueError(f"family must be 'upper' or 'lower', got {family!r}")


def _factor_table(a: int, s: int, c: int) -> list[int]:
    # [0, F(1), ..., F(a)], F(t) = coprime_catalan(t, (s-1)t + c) = C(st+c-1, t-1)/t, c = +-1.
    # Neighbouring binomials share all but m = min(s, t) factors on top and m - 1 below, so
    # F(t+1) = F(t) perm(st+c+s-1, m) / ((t+1) perm((s-1)t+c+m-1, m-1)).
    table = [0, 1]  # F(1) = 1 also covers the width-zero factor (s = 2, c = -1)
    for t in range(1, a):
        m = min(s, t)
        num = table[t] * perm(s * t + c + s - 1, m)
        den = (t + 1) * perm((s - 1) * t + c + m - 1, m - 1)
        table.append(_exact_div(num, den, "theorem factor F({}) for s = {}, c = {}", t + 1, s, c))
    return table


def _theorem_sum(k: int, s: int, c: int) -> int:
    # F(2k) + c * sum of F(2k-j) F(j) over j < k (upper, c = -1) or j <= k (lower, c = +1).
    ct = _factor_table(2 * k, s, c)
    return ct[2 * k] + c * sum(ct[2 * k - j] * ct[j] for j in range(1, k + (c > 0)))


def theorem1_count(k: int, n: int) -> int:
    """Paths in the (2k)-by-(2k(n+1) - 2) rectangle, by subtraction.

    Equals the coprime count at width 2k(n+1) - 1 minus the sum of coprime
    products over the upper-family pairs.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _theorem_sum(k, n + 2, -1)


def theorem2_count(k: int, n: int) -> int:
    """Paths in the (2k)-by-(2kn + 2) rectangle, by addition.

    Equals the coprime count at width 2kn + 1 plus the sum of coprime
    products over the lower-family pairs.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _theorem_sum(k, n + 1, 1)
