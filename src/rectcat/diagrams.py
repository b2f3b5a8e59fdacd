"""Staircase diagrams, Dyck words, and the exact path-counting oracle.

An (a,b)-Dyck path runs from the top-left corner (0,a) to the bottom-right
corner (b,0) of an a-by-b rectangle using unit down steps (letter "0") and
unit right steps (letter "1"), staying weakly below the corner-to-corner
diagonal: after d down and r right steps the path is admissible iff
b*d >= a*r.  Touching the diagonal is allowed.

A path is stored as its word (a string over "01", a zeros and b ones), as
its staircase diagram (the numbers of boxes strictly between the path and the
left edge, one entry per row, bottom row first, trailing zeros dropped, so the
leftmost path has the empty diagram), or, inside this module, as xs: the x
position of each down step, top row first.  The path is lowest just before
each down step, so it is admissible iff xs[i] <= b*i // a for every i; these
bounds are the maximal (Christoffel) staircase read top-down, whose row r holds
floor(b*(a-r)/a) boxes.  The diagram is xs[:0:-1] without trailing zeros, and
words compare lexicographically ("0" before "1") exactly as their xs do.  A
diagram belongs to some (a,b)-path exactly when it fits inside the staircase.

count_paths is the counting oracle for the whole package: a row-by-row
dynamic program over sub-diagrams, exact in arbitrary-precision integers.

enumerate_paths streams every path from one odometer over xs.  Each step
raises one down step i to v and pulls the later ones up to v, so each word
and each diagram is spliced from the one before: the diagram is v repeated
a - i times, bottom row first, followed by the rows above step i, kept as
they were.  The diagram comes as a tuple or, for a writer, as its rows' text.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate
from operator import index, lt

Diagram = tuple[int, ...]

DEFAULT_ENUM_CAP = 10**6


class TooManyPaths(ValueError):
    """Raised when an enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"too many paths: {count} exceeds the cap of {cap}")
        self.count = count
        self.cap = cap


def check_rect(a: int, b: int) -> None:
    """Reject degenerate rectangles; both sides must be at least 1."""
    if a < 1 or b < 1:
        raise ValueError(f"rectangle sides must be positive integers, got {a}x{b}")


def as_diagram(rows) -> Diagram:
    """Normalize ``rows`` into a diagram tuple.

    Rows are integers listed bottom-up, nonnegative and weakly decreasing;
    trailing zeros are dropped.  Raises TypeError or ValueError otherwise.
    """
    mu = tuple(map(index, rows))
    if mu and (mu[-1] < 0 or any(map(lt, mu, mu[1:]))):
        # Only bad rows get here; the first offending row picks the message.
        for i, r in enumerate(mu):
            if r < 0:
                raise ValueError(f"negative row length {r} in {mu}")
            if i and r > mu[i - 1]:
                raise ValueError(f"rows must be weakly decreasing bottom-up, got {mu}")
    # Weakly decreasing and nonnegative: every zero row is a trailing one.
    return mu[: len(mu) - mu.count(0)]


def parse_diagram(text: str) -> Diagram:
    """Parse the comma-separated row format, e.g. "7,6,4,3,1".  "" is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        rows = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"malformed diagram {text!r}: expected comma-separated integers"
        ) from None
    return as_diagram(rows)


def format_diagram(mu) -> str:
    """Inverse of parse_diagram."""
    return ",".join(str(r) for r in as_diagram(mu))


def christoffel_diagram(a: int, b: int) -> Diagram:
    """Maximal staircase of the a-by-b rectangle: row r holds floor(b*(a-r)/a) boxes."""
    check_rect(a, b)
    # Rows weakly decrease and are nonnegative by construction, so nothing
    # needs re-checking.  Row r is nonempty iff b*(a-r) >= a, that is
    # r <= a - ceil(a/b): the trailing zero rows are never built.
    top = a + (-a) // b
    return tuple([b * (a - r) // a for r in range(1, top + 1)])


def _downs(word: str):
    """The x position of each down step of ``word``, top row first."""
    return accumulate(map(len, word.split("0")[:-1]))


def _word(b: int, xs) -> str:
    """Inverse of _downs: the runs of right steps between the down steps."""
    return "0".join("1" * (x - prev) for prev, x in zip([0, *xs], [*xs, b]))


def is_valid_word(a: int, b: int, word: str) -> bool:
    """True iff ``word`` stays weakly below the (a,b)-diagonal.

    The word must consist of exactly a letters "0" (down) and b letters "1"
    (right); anything else is an input error, not False.
    """
    check_rect(a, b)
    if set(word) - {"0", "1"}:
        raise ValueError(f"word must be over letters 0 and 1, got {word!r}")
    if word.count("0") != a or word.count("1") != b:
        raise ValueError(
            f"word needs {a} down and {b} right steps, got "
            f"{word.count('0')} and {word.count('1')}"
        )
    return all(a * x <= b * i for i, x in enumerate(_downs(word)))


def word_to_diagram(a: int, b: int, word: str) -> Diagram:
    """Diagram of a valid word.

    Row r of the diagram records the x coordinate at which the path steps
    down through that row, i.e. the position of its (a-r+1)-th down step.
    """
    if not is_valid_word(a, b, word):
        raise ValueError(f"word {word!r} leaves the {a}x{b} staircase region")
    xs = list(_downs(word))
    return tuple(xs[: xs.count(0) - 1 : -1])  # xs[:0:-1] less the zeros xs starts with


def diagram_to_word(a: int, b: int, mu) -> str:
    """Word of the path carving out ``mu``; inverse of word_to_diagram."""
    bounds = christoffel_diagram(a, b)
    mu = as_diagram(mu)
    if len(mu) > len(bounds) or any(map(lt, bounds, mu)):
        raise ValueError(f"diagram {mu} does not fit the {a}x{b} staircase")
    return _word(b, [0] * (a - len(mu)) + list(mu[::-1]))


def count_paths(mu) -> int:
    """Number of staircase diagrams contained in ``mu``.

    Equivalently, the number of monotone paths fitting weakly under the
    staircase.  Row-by-row dynamic program: processing rows from the top
    down, t[x] holds the number of fillings of the rows seen so far whose
    current row has exactly x boxes.  A row of x boxes sits under any row
    above it of at most x boxes, so the next row's table is the prefix sums
    of t.  Going down, row lengths weakly increase, so the next row is never
    shorter than t; its entries past the end of t hold the full sum, which
    is the last prefix sum repeated.  Exact integer arithmetic throughout.
    """
    mu = as_diagram(mu)
    if not mu:
        return 1
    t = [1] * (mu[-1] + 1)
    for length in mu[-2::-1]:
        t = list(accumulate(t))
        t += [t[-1]] * (length + 1 - len(t))
    return sum(t)


def count_rect(a: int, b: int) -> int:
    """Number of (a,b)-Dyck paths: count_paths over the maximal staircase."""
    return count_paths(christoffel_diagram(a, b))


def enumerate_paths(
    a: int, b: int, cap: int = DEFAULT_ENUM_CAP, sep: str | None = None
) -> Iterator[tuple[str, Diagram | str]]:
    """Every (a,b)-Dyck path as ``(word, diagram)``, words in lexicographic order.

    Returns an iterator.  The call itself refuses: with TooManyPaths when the
    count exceeds ``cap``, and with OverflowError when the word is longer than
    Python can index.  With ``sep`` a string, each diagram comes as its rows'
    decimal text joined by ``sep`` (the empty diagram as "") instead of a tuple.
    """
    total = count_rect(a, b)
    if total > cap:
        raise TooManyPaths(total, cap)
    # The first word is built here, so a size Python cannot index raises now.
    return _walk(a, b, "0" * a + "1" * b, sep)


def _walk(a: int, b: int, word: str, sep: str | None):
    # An odometer over the down-step positions, xs[i] running from xs[i-1] up
    # to b*i // a: advance the last position below its bound to v and pull
    # every later one up to v, the least each may take.  Word and diagram are
    # both spliced from the ones before.  The word keeps everything up to down
    # step i-1, which sits at xs[i-1] + i - 1, then runs right to v, steps down
    # a - i times and runs right to b.  The diagram, bottom row first, is v
    # repeated a - i times followed by the rows above down step i, which it
    # keeps: they are the last kept[i] items of the one before.  A row is
    # (v,) in a tuple, or the characters of sep + str(v) in text, which then
    # drops its first sep.  Zero rows are never written, so none trail.
    bounds = [b * i // a for i in range(a)]
    xs = [0] * a
    kept = [0] * a
    rows = () if sep is None else ""
    lead = 0 if sep is None else len(sep)
    while True:
        yield word, rows[lead:]
        i = a - 1
        while i and xs[i] == bounds[i]:
            i -= 1
        if not i:
            return
        x, v, n = xs[i - 1], xs[i] + 1, a - i
        word = word[: x + i] + "1" * (v - x) + "0" * n + "1" * (b - v)
        xs[i:] = [v] * n
        row = (v,) if sep is None else f"{sep}{v}"
        k = kept[i]
        rows = row * n + rows[len(rows) - k :]
        if n > 1:
            kept[i + 1 :] = range(k + len(row), k + len(row) * n, len(row))
