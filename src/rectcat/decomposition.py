"""Rewriting staircase diagrams as sums and products of isosceles ones.

The splitting rule peels off one outer-corner box at a time: a diagram
equals (the diagram without that box) plus (rows above) times (rows below,
shifted past the box's column), and the recursion bottoms out on the
isosceles staircases I_n = (n-1, ..., 1) and the empty diagram.  Evaluating
the resulting expression with the empty diagram as 1, I_n as the n-th
Catalan number, sums as sums and products as products reproduces the exact
path count of the original diagram, so Catalan numbers alone generate every
rectangle count through this calculus.

The removed box is pinned to the outer corner of the topmost row still in
excess of the largest inscribed isosceles staircase; that makes decompose a
pure function with one well-defined tree per diagram.  decompose builds the
tree with an explicit stack, without recursion, into a memo keyed by row
tuple: a fresh dict that lives for one call, or the caller's ``memo``, which
lives as long as the caller keeps it.  Nothing is kept between calls
otherwise.  Equal sub-diagrams in one memo share the very same node objects,
and every node carries its value, computed once when it is built, so a sweep
over one memo evaluates each shared node once in all.  The folds here
(expr_stats, the text normal form and ``tree``) walk the structure
iteratively and compute each shared node once, and the JSON writer joins a
shared node's text once, when it meets the node again.

Two printed forms exist: render(expr) is the sum-of-products normal form, one
term per summand, and render(expr, "json") is the tree as built in JSON,
written straight from the expression by json_pieces, which the CLI also uses
for its --json report.  tree(expr) is the same tree as plain dicts.  A caller
that needs only one of them builds only that one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import prod

from .comparison import _through_box_split
from .diagrams import Diagram, as_diagram
from .formulas import catalan


@dataclass(frozen=True)
class One:
    """Empty diagram: the multiplicative unit, value 1."""

    value = 1


# A node's value is set once, from its children's; ==, hash and repr ignore it.
@dataclass(frozen=True)
class Iso:
    """Isosceles staircase I_n = (n-1, n-2, ..., 1): value catalan(n)."""

    n: int
    value: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"staircase index must be positive, got {self.n}")
        object.__setattr__(self, "value", catalan(self.n))


@dataclass(frozen=True)
class Sum:
    terms: tuple
    value: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a sum needs at least one term")
        object.__setattr__(self, "value", sum(term.value for term in self.terms))


@dataclass(frozen=True)
class Prod:
    factors: tuple
    value: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a product needs at least one factor")
        object.__setattr__(self, "value", prod(factor.value for factor in self.factors))


DecompExpr = One | Iso | Sum | Prod

ONE = One()


def iso_rows(n: int) -> Diagram:
    """Rows of the isosceles staircase I_n."""
    if n < 1:
        raise ValueError(f"staircase index must be positive, got {n}")
    return tuple(range(n - 1, 0, -1))


def max_isosceles(mu) -> int:
    """Largest n with I_n contained in ``mu`` (always at least 1)."""
    return _max_isosceles(as_diagram(mu))


def _max_isosceles(mu: Diagram) -> int:
    # I_n has n - 1 rows and needs mu[r-1] >= n - r boxes in row r, so n is
    # at most the row count plus one and at most mu[r-1] + r for every row.
    return min([len(mu) + 1, *(m + r for r, m in enumerate(mu, 1))])


def decompose(mu, memo: dict | None = None) -> DecompExpr:
    """Expression over One/Iso leaves with h_value(decompose(mu)) == count_paths(mu).

    Nodes are built into ``memo``, keyed by row tuple: a fresh dict unless the
    caller passes one to share nodes across calls.
    """
    mu = as_diagram(mu)
    built = {} if memo is None else memo
    built.setdefault((), ONE)
    # Items are (diagram, None) to expand and (diagram, parts) to assemble
    # once its parts are built.  Parts have fewer boxes than their diagram,
    # so no diagram is expanded while it is still being assembled.
    stack = [(mu, None)]
    while stack:
        nu, parts = stack.pop()
        if parts is not None:
            slimmed, upper, lower = parts
            built[nu] = Sum((built[slimmed], Prod((built[upper], built[lower]))))
            continue
        if nu in built:
            continue
        n = _max_isosceles(nu)
        # Topmost row sticking out of I_n.  The row above it holds at most
        # n - r - 1 boxes, so row r ends in an outer corner.  With none, nu
        # holds I_n and has no row past it, so nu is I_n.
        r = next((r for r in range(len(nu), 0, -1) if nu[r - 1] > n - r), 0)
        if not r:
            built[nu] = Iso(n)
            continue
        parts = _through_box_split(nu, r)
        stack.append((nu, parts))
        stack.extend((part, None) for part in parts if part not in built)
    return built[mu]


def _children(node) -> tuple:
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Prod):
        return node.factors
    return ()


def _fold(root, leaf, combine_sum, combine_prod):
    """Evaluate bottom-up over the possibly shared tree, without recursion."""
    done = {}  # node id -> value, for this call only
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kids = _children(node)
        pending = [k for k in kids if id(k) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if not kids:
            done[id(node)] = leaf(node)
        else:
            vals = [done[id(k)] for k in kids]
            done[id(node)] = (
                combine_sum(vals) if isinstance(node, Sum) else combine_prod(vals)
            )
    return done[id(root)]


def h_value(expr) -> int:
    """The expression's value: One -> 1, Iso(n) -> catalan(n), +, *.

    Each node computed it once, when it was built.
    """
    return expr.value


def expr_stats(expr) -> tuple[int, int, int]:
    """(summands in sum-of-products normal form, leaf count, tree depth)."""

    def combine(count_summands):  # sum under a Sum, prod under a Prod
        return lambda vals: (
            count_summands(v[0] for v in vals),
            sum(v[1] for v in vals),
            1 + max(v[2] for v in vals),
        )

    return _fold(expr, lambda nd: (1, 1, 1), combine(sum), combine(prod))


def _times(xs: list[str], ys: list[str]) -> list[str]:
    # Every term of xs times every term of ys, xs outermost; "" is the empty
    # product, which drops out of a product with anything.
    return [f"{x}*{y}" if x and y else x or y for x in xs for y in ys]


def _normal_terms(expr) -> list[str]:
    # Distribute products over sums; a term is its Iso labels joined by "*",
    # One factors dropped, construction order kept.  A Sum's value is the
    # tuple of its children's values (a rope, so a Sum copies no terms), any
    # other value a list of terms.  A rope is flattened once, when a product
    # or the root first needs its terms.
    flat: dict[int, list[str]] = {}

    def terms(value) -> list[str]:
        if isinstance(value, list):
            return value
        if id(value) not in flat:
            found, stack = [], [value]
            while stack:
                part = stack.pop()
                if isinstance(part, list):
                    found += part
                else:
                    stack += reversed(part)
            flat[id(value)] = found
        return flat[id(value)]

    return terms(
        _fold(
            expr,
            leaf=lambda nd: [""] if isinstance(nd, One) else [f"C{nd.n}"],
            combine_sum=tuple,
            combine_prod=lambda vals: reduce(_times, map(terms, vals)),
        )
    )


def tree(expr) -> dict:
    """The tree as built, as plain dicts and lists.

    Schema: {"type":"one"} | {"type":"iso","n":N} | {"type":"sum","terms":[...]}
    | {"type":"prod","factors":[...]}.  A shared node becomes one shared dict.
    """
    return _fold(
        expr,
        leaf=lambda nd: {"type": "one"} if isinstance(nd, One) else {"type": "iso", "n": nd.n},
        combine_sum=lambda vals: {"type": "sum", "terms": vals},
        combine_prod=lambda vals: {"type": "prod", "factors": vals},
    )


# The JSON text of each node shape in the two styles: One, Iso (formatted
# with n), the separator between children, and the text around the children
# of a Sum and of a Prod.  Compact keeps the key order of ``tree``; sorted is
# what json.dumps(..., sort_keys=True) writes with its default separators.
_COMPACT = (
    '{"type":"one"}',
    '{"type":"iso","n":%d}',
    ",",
    {Sum: ('{"type":"sum","terms":[', "]}"), Prod: ('{"type":"prod","factors":[', "]}")},
)
_SORTED = (
    '{"type": "one"}',
    '{"n": %d, "type": "iso"}',
    ", ",
    {Sum: ('{"terms": [', '], "type": "sum"}'), Prod: ('{"factors": [', '], "type": "prod"}')},
)


def json_pieces(expr, sort_keys: bool = False) -> list[str]:
    """The JSON text of ``tree(expr)`` as strings to be written in order.

    Joined, the pieces are json.dumps(tree(expr), separators=(",", ":")), or
    json.dumps(tree(expr), sort_keys=True) when ``sort_keys`` is set.  They
    are written straight from the expression in one depth-first walk, without
    recursion, and are only ever appended.  A Sum or Prod met for the first
    time is written as its own pieces, and the span they fill is noted; met
    again, that span is joined into one string, which this and every later
    occurrence repeat.
    """
    one, iso, sep, brackets = _SORTED if sort_keys else _COMPACT
    written: dict[int, tuple[int, int] | str] = {}  # node id -> span, then text
    out: list[str] = []
    # Items are nodes to write, text to copy, or (start, node id) where a
    # node's pieces end.
    stack = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, tuple):
            start, key = item
            written[key] = (start, len(out))
        elif isinstance(item, One):
            out.append(one)
        elif isinstance(item, Iso):
            out.append(iso % item.n)
        elif id(item) in written:
            text = written[id(item)]
            if isinstance(text, tuple):
                written[id(item)] = text = "".join(out[slice(*text)])
            out.append(text)
        else:
            opening, closing = brackets[type(item)]
            stack += ((len(out), id(item)), closing)
            kids = _children(item)
            for kid in kids[:0:-1]:
                stack += (kid, sep)
            stack.append(kids[0])
            out.append(opening)
    return out


def render(expr, fmt: str = "text") -> str:
    """Render the expression as one string.

    "text" flattens to sum-of-products normal form: terms joined by " + ",
    factors by "*", Iso(n) printed as Cn, an all-One product as "1".
    "json" is the compact JSON text of ``tree(expr)``, joined from
    ``json_pieces``.
    """
    if fmt == "text":
        return " + ".join(term or "1" for term in _normal_terms(expr))
    if fmt == "json":
        return "".join(json_pieces(expr))
    raise ValueError(f"unknown render format {fmt!r}")
