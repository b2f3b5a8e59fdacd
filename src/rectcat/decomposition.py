"""Rewriting staircase diagrams as sums and products of isosceles ones.

The splitting rule peels off one outer-corner box at a time: a diagram
equals (the diagram without that box) plus (rows above) times (rows below,
shifted past the box's column), and the recursion bottoms out on the
isosceles staircases I_n = (n-1, ..., 1) and the empty diagram.  Evaluating
the resulting expression with the empty diagram as 1, I_n as the n-th
Catalan number, sums as sums and products as products reproduces the exact
path count of the original diagram, so Catalan numbers alone generate every
rectangle count through this calculus.

The removed box ends the top row of a diagram with L rows when I_{L+1} does
not fit inside it, and otherwise the topmost row longer than I_{L+1}'s, so
decompose is a pure function with one well-defined expression per diagram.
decompose returns it as a table: a tuple of rows, children before parents,
the root last.  A row is

    ("one", 1)                 the empty diagram,
    ("iso", C_n, n)            the staircase I_n, valued by catalan(n),
    ("split", v, i, j, k)      t_i + t_j * t_k, valued v = v_i + v_j * v_k,

where t_x is the expression of row x and v_x its value, the row's second
field, computed once when the row is built.  Each diagram gets one row, so
equal sub-diagrams share it, and two tables are equal when their rows are.
decompose builds a fresh table at each call, with an explicit stack and
without recursion, so the table holds exactly the rows its last row reaches
and nothing is kept between calls.

expr_stats is one forward loop over the rows, and so is _write, the one
writer of both text forms: render(rows), the sum-of-products normal form,
one term per summand, and json_pieces(rows), the expression tree in JSON,
each split a sum of t_i and the product t_j * t_k, as pieces of text whose
join is the compact tree.  _write counts the references to each row, then
writes the rows in order, a row's text a list of chunks: at its last
reference a row's chunks move into its parent, and a row referenced again
is joined into one string once, which every parent shares.  Neither form
holds one string a term or a node, and each is built only when asked.
"""

from __future__ import annotations

import json
from collections import deque
from operator import add

from .comparison import _through_box_split
from .diagrams import as_diagram
from .formulas import catalan


def decompose(mu) -> tuple:
    """The rows of mu's expression, mu's row last: h_value(rows) == count_paths(mu)."""
    rows: list = []
    _build(as_diagram(mu), rows, {})
    return tuple(rows)


def _build(mu, rows: list, at: dict) -> int:
    """Append the rows of normalized mu's expression not yet in ``at``; return mu's row.

    ``at`` maps each diagram with a row in ``rows`` to that row's index.
    """
    # Items are diagrams to expand and [diagram, slimmed, upper, lower] lists
    # to assemble once their parts are built.  Parts have fewer boxes than
    # their diagram, so no diagram is expanded while it is still being
    # assembled.
    stack: list = [mu]
    while stack:
        nu = stack.pop()
        if nu.__class__ is list:
            nu, slimmed, upper, lower = nu
            i, j, k = at[slimmed], at[upper], at[lower]
            at[nu] = len(rows)
            rows.append(("split", rows[i][1] + rows[j][1] * rows[k][1], i, j, k))
            continue
        if nu in at:
            continue
        # The box comes off the topmost row r sticking out of the largest
        # staircase inside nu.  Row x of I_top, top = len(nu) + 1, holds
        # top - x boxes, and I_n has n - 1 rows.  If a row of nu holds fewer,
        # the largest has fewer rows than nu, and r is the top row.  Else it
        # is I_top, and r the topmost row holding more: the row above holds
        # I_top's, so r ends in a corner.  With no r, nu is I_top or empty.
        top = len(nu) + 1
        r = len(nu)
        if r and min(map(add, nu, range(1, top))) >= top:
            while r and nu[r - 1] + r == top:
                r -= 1
        if not r:
            at[nu] = len(rows)
            rows.append(("iso", catalan(top), top) if nu else ("one", 1))
            continue
        parts = _through_box_split(nu, r)
        stack.append([nu, *parts])
        stack += parts
    return at[mu]


def h_value(rows) -> int:
    """The expression's value: 1, catalan(n), +, *; its last row computed it once."""
    return rows[-1][1]


def expr_stats(rows) -> tuple[int, int, int]:
    """(summands in sum-of-products normal form, leaf count, tree depth)."""
    stats = []
    for row in rows:
        if row[0] == "split":
            (si, li, di), (sj, lj, dj), (sk, lk, dk) = stats[row[2]], stats[row[3]], stats[row[4]]
            stats.append((si + sj * sk, li + lj + lk, max(1 + di, 2 + dj, 2 + dk)))
        else:
            stats.append((1, 1, 1))
    return stats[-1]


def _write(rows, leaf, split, sep: str):
    """The last row's text as chunks, from one forward loop over the rows.

    leaf(row) is a leaf's chunks, a list or a deque, and split(t_i, t_j, t_k)
    a split row's, made by changing t_i alone.  refs counts the references
    not yet met.  At its last one a row's chunks move into the parent; a row
    referenced again is joined by ``sep`` into one chunk, once, and every
    parent shares that string.  t_i is taken first, and copied when it is
    referenced again, so a split changes its own t_i even when t_i is also
    t_j or t_k.
    """
    refs = [0] * len(rows)
    for row in rows:
        if row[0] == "split":
            for y in row[2:]:
                refs[y] += 1
    chunks: list = [None] * len(rows)
    for x, row in enumerate(rows):
        if row[0] != "split":
            chunks[x] = leaf(row)
            continue
        taken = []
        for y in row[2:]:
            refs[y] -= 1
            text = chunks[y]
            if not refs[y]:
                chunks[y] = None
            else:
                if len(text) > 1:
                    chunks[y] = text = type(text)([sep.join(text)])
                if not taken:
                    text = text.copy()
            taken.append(text)
        chunks[x] = split(*taken)
    return chunks[-1]


def json_pieces(rows, sort_keys: bool = False) -> list[str]:
    """The expression tree's JSON text as strings to be written in order.

    Schema: {"type":"one"} | {"type":"iso","n":N} | {"type":"sum","terms":[...]}
    | {"type":"prod","factors":[...]}; a split row is the sum of t_i and the
    product of t_j and t_k.  Joined, the pieces are that tree as
    json.dumps(..., separators=(",", ":")) writes it, keys in schema order,
    or as json.dumps(..., sort_keys=True) writes it when ``sort_keys`` is
    set.  _write makes them, so a shared row's text is one string, made once.
    """
    style = {"sort_keys": True} if sort_keys else {"separators": (",", ":")}
    # One skeleton node of each kind, cut where an iso's n or a split's
    # children go: before t_i, between t_i and t_j, t_j and t_k, after t_k.
    (one,), iso, (opening, middle, sep, closing) = (
        json.dumps(node, **style).split("null")
        for node in ({"type": "one"}, {"type": "iso", "n": None},
                     {"type": "sum", "terms": [None, {"type": "prod", "factors": [None, None]}]})
    )

    def leaf(row):
        return deque([f"{iso[0]}{row[2]}{iso[1]}" if row[0] == "iso" else one])

    def split(node, s, t):
        node.appendleft(opening)  # in one step, node being a deque
        node.append(middle)
        node += s
        node.append(sep)
        node += t
        node.append(closing)
        return node

    return list(_write(rows, leaf, split, ""))


def render(rows) -> str:
    """The sum-of-products normal form as one string.

    Terms are joined by " + " and factors by "*"; I_n prints as Cn, and an
    all-one product as "1".
    """
    # A term holds only "C", digits and "*", each "*" followed by "C", and
    # "1" is a term on its own.  So " + " occurs only between terms, and when
    # u, a term other than "1", multiplies t term by term, "*1" occurs only
    # where a "1" of t took u as a factor: deleting it leaves u.  A row's
    # chunks are some of its terms joined: t_i's chunks, then the t_j * t_k
    # products, t_j outermost, so each term of t_j multiplies all of t_k in
    # one str.replace.

    def split(terms, s, t):
        t = " + ".join(t)
        for u in " + ".join(s).split(" + "):
            if u == "1":
                terms.append(t)
            else:
                terms.append((u + "*" + t.replace(" + ", " + " + u + "*")).replace("*1", ""))
        return terms

    chunks = _write(rows, lambda row: [f"C{row[2]}" if row[0] == "iso" else "1"], split, " + ")
    return " + ".join(chunks)
