"""Closed-form counting expressions, evaluated in exact integer arithmetic.

Every divided binomial here is exact: _exact_div, the package's one exact
division helper, raises ArithmeticError rather than round.  ballot_value prints
(b - ka + 1)/b * C(a + b, a) verbatim, which is no path count; ballot_brute
counts the paths weakly above y = kx by (b - ka + 1)/(b + 1) * C(a + b, a).
digits writes in decimal every number that can outgrow the arguments.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import comb, gcd


def digits(n) -> str:
    """``n``, an int or a Fraction, in decimal.

    Goes through Decimal because str() refuses ints past 4300 digits on
    Python 3.11+, and lifting that limit would change it for the whole process.
    """
    text = str(Decimal(n.numerator))
    return text if n.denominator == 1 else f"{text}/{Decimal(n.denominator)}"


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _exact_div(num: int, den: int, what: str, *args) -> int:
    q, r = divmod(num, den)
    if r:  # name the call, what.format(*args), but no operand: str() refuses 4300+ digits
        raise ArithmeticError(f"{what.format(*args)} is not integral")
    return q


def catalan(n: int) -> int:
    """n-th Catalan number C(2n, n) / (n + 1); counts paths in an n-by-n square."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _exact_div(binomial(2 * n, n), n + 1, "catalan({})", n)


def fuss_catalan(a: int, k: int) -> int:
    """C(ak + a, a) / (ak + 1); counts paths in an a-by-(a*k) rectangle."""
    if a < 1 or k < 1:
        raise ValueError(f"a and k must be positive, got a={a}, k={k}")
    return _exact_div(binomial(a * k + a, a), a * k + 1, "fuss_catalan({},{})", a, k)


def coprime_catalan(a: int, b: int) -> int:
    """C(a + b, a) / (a + b); counts paths in an a-by-b rectangle with gcd(a,b) = 1."""
    if a < 1 or b < 1:
        raise ValueError(f"sides must be positive, got {a}x{b}")
    g = gcd(a, b)
    if g != 1:
        raise ValueError(f"sides must be coprime, got gcd({a},{b}) = {g}")
    return _exact_div(binomial(a + b, a), a + b, "coprime_catalan({},{})", a, b)


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base above (Sorenson & Webster, Math. Comp. 86, 2017).
_PSI13 = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Strong-probable-prime test to _BASES, exact for p < _PSI13; larger p raise ValueError."""
    for q in _BASES:
        if p % q == 0:
            return p == q
    if p < 41 * 41:  # no prime factor up to 41 leaves no factor at all
        return p > 1
    if p >= _PSI13:
        raise ValueError(f"height must be below {_PSI13}, where the prime test is exact")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for q in _BASES:
        x = pow(q, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_rect(p: int, b: int) -> int:
    """Paths in a p-by-b rectangle for prime p.

    For prime height the two cases gcd(p,b) = 1 and p | b cover every width:
    the first is coprime_catalan, the second C(p + b + 1, p) / (p + b + 1).
    """
    if not _is_prime(p):
        raise ValueError(f"height must be prime, got {p}")
    if b < 1:
        raise ValueError(f"width must be positive, got {b}")
    if b % p == 0:
        return _exact_div(binomial(p + b + 1, p), p + b + 1, "prime_rect({},{})", p, b)
    return coprime_catalan(p, b)


def ballot_value(a: int, b: int, k: int) -> Fraction:
    """The ballot-style expression ((b - ka + 1) / b) * C(a + b, a), exactly.

    Returned as a Fraction: the value need not be integral, and it is not
    asserted to count any particular path family.
    """
    if a < 1:
        raise ValueError(f"a must be positive, got {a}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if b <= a * k:
        raise ValueError(f"need b > a*k, got b={b} and a*k={digits(a * k)}")
    return Fraction(b - k * a + 1, b) * binomial(a + b, a)


def avoidance_value(n: int, k: int) -> int:
    """C(2(k+1)n, 2n) - (k-1) * sum_{i<2n} C(2(k+1)n, i), evaluated verbatim.

    It counts the east/north walks of 2(k+1)n steps, any endpoint, never below y = k*x.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    length = 2 * (k + 1) * n
    # term runs through C(length, i) and ends on C(length, 2n); below sums the rest.
    term, below = 1, 0
    for i in range(2 * n):
        below += term
        term = _exact_div(term * (length - i), i + 1, "avoidance_value({},{})", n, k)
    value = term - (k - 1) * below
    if k >= 1 and value < 0:
        raise ArithmeticError(f"avoidance_value({n},{k}) came out negative")
    return value


def ballot_brute(a: int, b: int, k: int) -> int:
    """Monotone paths (0,0) -> (a,b) whose every lattice point obeys y >= k*x.

    The weak ballot number (b - ka + 1)/(b + 1) * C(a + b, a), 0 below the line
    (Mohanty 1979); for a=1, b=2, k=1 it counts 2 where ballot_value gives 3.
    """
    if a < 0 or b < 0 or k < 0:
        raise ValueError(f"arguments must be nonnegative, got {a}, {b}, {k}")
    if b < k * a:
        return 0
    dividend = (b - k * a + 1) * binomial(a + b, a)
    return _exact_div(dividend, b + 1, "ballot_brute({},{},{})", a, b, k)
