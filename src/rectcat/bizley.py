"""General rectangle counts via Bizley's partition sum.

For an m-by-n rectangle write d = gcd(m, n) and (a, b) = (m/d, n/d).  With
phi_j = C(j(a+b), ja) / (j(a+b)), the path count of the rectangle is the
coefficient of t^d in exp(sum_j phi_j t^j), i.e.

    sum over partitions lambda of d of  prod_j phi_j^{m_j} / m_j!

where m_j is the multiplicity of j in lambda.  There are p(d) partitions of d,
so the sum is not evaluated term by term: the exponential formula turns it
into a recurrence of O(d^2) integer steps (see ``bizley_count``).  Every
intermediate is an integer; one that is not is reported as an internal error
rather than rounded.  ``partitions`` enumerates the sum's index set.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .formulas import _exact_div, binomial

Partition = tuple[int, ...]


def partitions(d: int) -> list[Partition]:
    """All partitions of d with parts descending, in reverse-lexicographic order."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    out: list[Partition] = []

    def extend(prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(prefix, remaining - part, part)
            prefix.pop()

    extend([], d, d)
    return out


def phi(a: int, b: int, j: int) -> Fraction:
    """phi_j = C(j(a+b), ja) / (j(a+b)) for coprime (a, b)."""
    if a < 1 or b < 1 or j < 1:
        raise ValueError(f"arguments must be positive, got a={a}, b={b}, j={j}")
    g = gcd(a, b)
    if g != 1:
        raise ValueError(f"(a, b) must be coprime, got gcd({a},{b}) = {g}")
    total = j * (a + b)
    return Fraction(binomial(total, j * a), total)


def bizley_count(m: int, n: int) -> int:
    """Number of (m,n)-Dyck paths for arbitrary gcd: the partition sum.

    With f_k the count for the (ka)x(kb) rectangle and the integer weights
    w_j = j(a+b) phi_j = C(j(a+b), ja), the exponential formula gives

        k(a+b) f_k = sum_{j=1..k} w_j f_{k-j},    f_0 = 1,

    so f_d costs O(d^2) integer operations.  ``phi`` is looked up on this
    module for each j <= d, and w_j is taken from its numerator and
    denominator without Fraction arithmetic; a weight or quotient that is not
    an integer raises ArithmeticError.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    d = gcd(m, n)
    a, b = m // d, n // d
    w = [0]
    for j in range(1, d + 1):
        p = phi(a, b, j)
        w.append(_exact_div(j * (a + b) * p.numerator, p.denominator,
                            "bizley weight w_{} for {}x{}", j, m, n))
    f = [1]
    for k in range(1, d + 1):
        total = sum(map(mul, w[1 : k + 1], reversed(f)))
        f.append(_exact_div(total, k * (a + b), "bizley recurrence for {}x{} at k = {}", m, n, k))
    return f[d]
