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
Read row by row, the same prefix sums count the odometer's settings below.

enumerate_paths streams every path.  An odometer runs over the first a - k
positions of xs.  Each step raises one down step i to v and pulls the later
ones up to v, so each head, the word up to down step a - k - 1, and the rows
above it are spliced from the ones before: v repeated, bottom row first,
followed by the rows above step i, kept as they were.  A path as a tuple is
one odometer setting: k = 0, and the head is the whole word.  A path as
text, a line or a JSON item, is written with all the other paths of its
setting by one str.join over a table built when the walk starts, which holds,
for the head's last position x, every completion of the last k down steps as
text: the setting's rows and head stand between each two of the table's
entries.  k is picked before any table is built, from the odometer's
settings counted forward, a count that also gives the number of paths, and
the completions counted backward: the least cost of odometer steps plus
table entries, every level of the tables counted, within a budget of letters
held.  At k = 0 there is no table and each setting is a path.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, repeat
from operator import add, index, lt, mul

from .formulas import digits

Diagram = tuple[int, ...]

# Every size refusal's cap: enumerate's paths, and their letters with a line
# end each; christoffel's rows below the top one, two numbers printed a row.
CAPS = {"paths": 10**6, "letters": 10**9, "rows": 10**6}


class TooLarge(ValueError):
    """Raised when a size, known before any work, exceeds its cap."""

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"too many {what}: {digits(size)} exceeds the cap of {digits(cap)}")
        self.what, self.size, self.cap = what, size, cap


def admit(what: str, size: int, cap: int | None = None) -> None:
    """Refuse ``size`` of ``what`` past ``cap``, by default CAPS[what]."""
    cap = CAPS[what] if cap is None else cap
    if size > cap:
        raise TooLarge(what, size, cap)


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
    staircase: the last count _fillings gives over mu's rows, top row first.
    """
    for total in _fillings(as_diagram(mu)[::-1]):
        pass
    return total


def _fillings(rows):
    """The row-by-row dynamic program over ``rows``, given top row first.

    t[x] holds the number of fillings of the rows seen so far whose current
    row has exactly x boxes, starting from one empty row above the first.  A
    row of x boxes sits under any row above it of at most x boxes, so the
    next row's table is the prefix sums of t.  Going down, row lengths weakly
    increase, so the next row is never shorter than t; its entries past the
    end of t hold the full sum, which is the last prefix sum repeated, a pad
    built only when the next row reads it; the last row's is only summed.
    Yields the number of fillings of the rows above each row, then of all of
    them.  Exact integer arithmetic throughout.
    """
    t, pad = [1], 0
    for length in rows:
        t += [t[-1]] * pad
        t = list(accumulate(t))
        yield t[-1]
        pad = length + 1 - len(t)
    yield sum(t) + t[-1] * pad


def count_rect(a: int, b: int) -> int:
    """Number of (a,b)-Dyck paths: count_paths over the maximal staircase.

    count(a, b) = count(b, a), so the staircase counted is the one with fewer
    rows: a thin shape is one long row, summed without being built.
    """
    if a > b > 0:
        a, b = b, a
    return count_paths(christoffel_diagram(a, b))


# The separator between the rows' text in each line form; None is the tuple form.
_ROW_SEPS = {None: None, "text": ",", "json": ", "}


def enumerate_paths(
    a: int, b: int, cap: int | None = None, form: str | None = None
) -> Iterator[tuple[str, Diagram]] | tuple[int, Iterator[str]]:
    """Every (a,b)-Dyck path with its diagram, words in lexicographic order.

    Returns an iterator of ``(word, diagram)`` pairs, or with ``form`` a line
    form, the number of paths and an iterator of text in pieces of whole
    lines or items.  ``form="text"`` gives one line per path: the word, a
    space and the rows joined by ",", and a line end; the empty diagram's
    line is the word alone.  ``form="json"`` gives pieces that join to a
    JSON list of ``{"diagram": [rows], "word": word}`` objects, spaced as
    json.dumps spaces them.  The call itself refuses, in this order: with
    ValueError for any other form, with TooLarge when the count exceeds
    ``cap``, by default CAPS["paths"], with OverflowError when the word is
    longer than Python can index, and with TooLarge when the words, with one
    more letter each for a line end, would hold more than CAPS["letters"].
    """
    check_rect(a, b)
    if form not in _ROW_SEPS:
        raise ValueError(f"form must be None, 'text' or 'json', got {form!r}")
    heads = _heads(a, b)
    total = heads[-1]
    admit("paths", total, cap)
    "" * (a + b)  # a word Python cannot index raises OverflowError here
    admit("letters", total * (a + b + 1))
    walk = _walk(a, b, heads, form)
    return walk if form is None else (total, walk)


def _heads(a: int, b: int) -> list[int]:
    """The odometer's settings over the first p down steps, for p from z to a.

    The first z = ceil(a/b) down steps sit at x = 0 on every path, so each
    of those prefixes has one setting; they are left out, and so cost
    nothing to count.  The last entry is the number of paths.  The settings
    over the first p steps are the fillings of the rows above step p, the
    bounds of positions z - 1 to p - 1, and the first of those is empty.
    """
    return list(_fillings(b * i // a for i in range(-(-a // b), a)))


def _walk(a: int, b: int, heads: list[int], form: str | None):
    # An odometer over the first p = a - k down-step positions, xs[i] running
    # from xs[i-1] up to b*i // a: advance the last position below its bound
    # to v and pull every later one up to v, the least each may take.  The
    # first z = ceil(a/b) positions have bound 0 and never move, so the lists
    # hold positions from lo = min(z, p) - 1 on: item i is position lo + i.
    # The word and the rows are both spliced from the ones before.  The word
    # keeps everything up to down step i-1, which sits at xs[i-1] + i - 1,
    # then runs right to v and steps down p - i times.  The rows, bottom row
    # first, are v repeated p - i times followed by the rows above down step
    # i, which they keep: the last kept[i] items of the ones before.  A row is
    # (v,) in a tuple, or the characters of sep + str(v) in text.  Zero rows
    # are never written, so none trail.  At k = 0, always so in the tuple
    # form, each setting is a path: its word also runs right to end = b
    # (deeper, end - v < 0 writes nothing), and its text drops the first sep.
    # Deeper, each setting is the head of every completion _tables holds for
    # its last position x, and a line form joins the setting's paths in one
    # step: between two of its glue entries stands the text that is the same
    # for every path of the setting, its rows and then its head.
    k = 0 if form is None else _depth(a, b, heads)
    p = a - k
    lo = min(-(-a // b), p) - 1
    bounds = [b * i // a for i in range(lo, p)]
    sep = _ROW_SEPS[form]
    if k:
        words = _tables(a, b, p, form)
    end = 0 if k else b
    xs = [0] * len(bounds)
    kept = xs.copy()
    word = "0" * p + "1" * end
    rows = () if sep is None else ""
    lead = "["
    while True:
        if form is None:
            yield word, rows
        elif form == "text":
            if k:
                yield word + (rows + "\n" + word).join(words[xs[-1]]) + rows + "\n"
            else:
                yield f"{word} {rows[1:]}\n" if rows else f"{word}\n"
        elif k:
            glue = (rows + '], "word": "' + word).join(words[xs[-1]])
            yield lead + '{"diagram": [' + glue + '"}'
        else:
            yield f'{lead}{{"diagram": [{rows[2:]}], "word": "{word}"}}'
        lead = ", "
        i = len(xs) - 1
        while i and xs[i] == bounds[i]:
            i -= 1
        if not i:
            if form == "json":
                yield "]"
            return
        x, v, n = xs[i - 1], xs[i] + 1, len(xs) - i
        word = word[: x + lo + i] + "1" * (v - x) + "0" * n + "1" * (end - v)
        xs[i:] = [v] * n
        row = (v,) if sep is None else f"{sep}{v}"
        held = kept[i]
        rows = row * n + rows[len(rows) - held :]
        if n > 1:
            kept[i + 1 :] = range(held + len(row), held + len(row) * n, len(row))


def _tables(a: int, b: int, p: int, form: str):
    # The completions of down steps p..a-1 for each position x of step p-1,
    # in lexicographic order, as the glue _walk joins: text, rests of words
    # before rows with no leading sep.  They are built one level j at a time
    # from the last step up.  An entry of level j for y = xs[j-1] is, for
    # v = xs[j] from y up: "0" followed by an entry of level j+1 for v, when
    # v = y; otherwise "1" followed by an entry of level j for y + 1.  So each
    # level prepends its letter and appends its row v in place, which is
    # never written when zero.  Only the level being built and the one below
    # it are held.
    # In text a glue entry is one path's rest of the word, a space and its
    # rows; the empty diagram's, only ever the first path's, has no space.
    # In JSON the rows come before the word, so an entry is one path's rest
    # of the word and the next path's rows: the first entry is the first
    # path's rows, and the last the last path's rest of the word.
    sep = _ROW_SEPS[form]
    words = [
        ["", "1" * (b - y)] if form == "json" else ["1" * (b - y) + " "]
        for y in range(b * (a - 1) // a + 1)
    ]
    for j in range(a - 1, p - 1, -1):
        ws, level = [], []
        for y in range(b * j // a, -1, -1):
            row = (f"{sep}{y}" if j < a - 1 else str(y)) if y else ""
            below = words[y]
            if form == "text":
                ws = [*map(add, map("0".__add__, below), repeat(row)), *map("1".__add__, ws)]
            else:
                ws = [
                    below[0] + row,
                    *map(add, map("0".__add__, below[1:-1]), repeat(row)),
                    "0" + below[-1] + ('"}, {"diagram": [' + ws[0] if ws else ""),
                    *map("1".__add__, ws[1:]),
                ]
            level.append(ws)
        words = level[::-1]
    if form == "text":
        words[0][0] = words[0][0][:-1]
    return words


# The walk's costs, fitted to its times, in units of one table entry built,
# which costs about as much as one position the odometer writes: a path at
# depth 0, past what every path costs at any depth, which no weight prices;
# a setting deeper, which opens the iterators over its table; a table list.
_PATH, _SETTING, _TABLE = 7, 15, 8
# The letters the two newest table levels may hold while they are built,
# each entry counted as its word and 100 letters more for its objects.
_TABLE_LETTERS = 3 * 2**20


def _depth(a: int, b: int, heads: list[int]) -> int:
    """How many down steps _walk takes from tables: the k of least cost.

    ``heads`` is _heads' forward count, whose last entry is the number of
    paths.  The cost of depth k is the positions the odometer writes, plus
    _SETTING a setting, plus the table entries, plus _TABLE a table list;
    at depth 0 it is the positions written plus _PATH a path.  The cheapest
    depth whose two newest table levels hold at most _TABLE_LETTERS wins,
    the smaller one on a tie.
    """
    # Forward: heads[p - z] odometer settings over the first p >= z down
    # steps, z = ceil(a/b), each writing position p - 1; steps[p - z + 1],
    # their running sum after the z - 1 positions before, one setting each,
    # counts the positions written.  Tables that reach above step z cost
    # more than they save: going up a level saves one position written and
    # builds at least one entry and one list.
    z = a + 1 - len(heads)
    steps = list(accumulate(heads, initial=z - 1))
    # Backward, while the budget holds and the tables alone cost less than
    # the best depth so far: n[y] completions of down steps j..a-1 after
    # xs[j-1] = y, each a word of a - j + b - y letters, and built the cost
    # of the tables of depth a - j, every level counted.
    best, least = 0, steps[-1] + _PATH * heads[-1]
    n = [1] * (b * (a - 1) // a + 1)
    built = below = 0
    for j, settings, written in zip(range(a - 1, z - 1, -1), heads[-2::-1], steps[-2::-1]):
        n = list(accumulate(n[b * j // a :: -1]))[::-1]
        width = a - j + b + 100
        letters = sum(map(mul, n, range(width, width - len(n), -1)))
        built += sum(n) + _TABLE * len(n)
        if letters + below > _TABLE_LETTERS or built >= least:
            break
        below = letters
        cost = written + _SETTING * settings + built
        if cost < least:
            best, least = a - j, cost
    return best
