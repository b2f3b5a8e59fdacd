"""The table of counting routes, and the cross-method sweeps that check them.

Each check compares an independent pair of routes over a bounded grid and
reports the counterexamples it finds instead of raising, so a single run can
show everything that is broken.  A cell is one comparison: the number got
one way at some arguments against the number wanted another way.  Twelve
checks are check_cells, which reads (args, got, want) cells from a generator
that run_verify or run_identity_checks hands it, so each cell's work is done
inside the check's own call, and formats a counterexample only for a cell
that fails; passing cells cost no string.  Three keep their own loops: the
split contract replays what each diagram adds at every visit, the
decomposition sweep builds one table for all its diagrams and writes two
kinds of counterexample, and special_r fails by raising its guard.

run_verify makes every oracle a run shares when it is called: one cache of
the rectangle oracle for every route-vs-oracle check, both rule2 checks and
the decomposition sweep's staircases, and one of the diagram oracle for the
split-contract and decomposition sweeps, so a run counts each rectangle and
each diagram once.  The two sweeps also share the per-height lists of
diagram_lists: each height is enumerated once, at the widest width either
sweep asks for, and each rectangle's list is that list filtered;
enumerate_paths sizes its walk with its own forward count.  All library
calls go through the module objects, which keeps the checks honest under
fault injection in tests.  The two sweeps meet a few hundred diagrams
thousands of times, so for the length of one call each keeps what each
diagram contributes: its corner cells and counterexamples, or its row in the
one decomposition table the sweep builds.  A repeat visit adds that again,
so cells and counterexamples read as if every visit had done the work.  An
injected fault is cached like any answer and still shows, and nothing
outlives the run.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cache
from math import gcd
from operator import getitem

from . import bizley, christoffel, comparison, decomposition, diagrams, formulas


Route = namedtuple("Route", "applies refusal count")


def _theorem(a: int, b: int) -> int:
    family, k, n = comparison.theorem_fit(a, b)
    if family == "upper":
        return comparison.theorem1_count(k, n)
    return comparison.theorem2_count(k, n)


ROUTES = {
    "oracle": Route(None, None, lambda a, b: diagrams.count_rect(a, b)),
    "bizley": Route(None, None, lambda a, b: bizley.bizley_count(a, b)),
    "coprime": Route(lambda a, b: gcd(a, b) == 1,
                     "sides must be coprime, got gcd({a},{b}) = {g}",
                     lambda a, b: formulas.coprime_catalan(a, b)),
    "fuss": Route(lambda a, b: b % a == 0,
                  "fuss needs the width to be a multiple of the height, got {a}x{b}",
                  lambda a, b: formulas.fuss_catalan(a, b // a)),
    "theorem": Route(lambda a, b: comparison.theorem_fit(a, b) is not None,
                     "{a}x{b} fits neither theorem family b = a(n+1)-2 nor b = an+2",
                     _theorem),
    "decompose": Route(None, None, lambda a, b: decomposition.h_value(
        decomposition.decompose(diagrams.christoffel_diagram(a, b)))),
}
"""Counting routes by name: where each applies (None: everywhere), its refusal
elsewhere, formatted with the sides a, b and their gcd g, and its count.  Each
count looks its function up on the module at call time, not at import, so that
a function replaced there (a test's injected fault, a profiler's wrapper) runs.
"""


def first_route(a: int, b: int, names: Iterable[str]) -> str:
    """The first of ``names`` whose route applies to a x b; else the last one's refusal.

    Sides check_rect refuses are refused before any route is asked.
    """
    diagrams.check_rect(a, b)
    for name in names:
        applies, refusal, _ = ROUTES[name]
        if applies is None or applies(a, b):
            return name
    raise ValueError(refusal.format(a=a, b=b, g=gcd(a, b)))


class CheckResult:
    """A check's name, the cells it compared and the counterexamples it found."""

    def __init__(self, name: str):
        self.name, self.cells, self.failures = name, 0, []

    def check(self, ok: bool, template: str, *args) -> None:
        """Count one cell; on failure record ``template.format(*args)``."""
        self.cells += 1
        if not ok:
            self.failures.append(template.format(*args))

    @property
    def passed(self) -> bool:
        return not self.failures


def check_cells(name: str, template: str, cells) -> CheckResult:
    """A number check over ``(args, got, want)`` cells, formatting only the failures.

    A failing cell records ``template.format(*args, got, want)``.
    """
    res, cells = CheckResult(name), list(cells)
    res.cells = len(cells)
    res.failures = [template.format(*args, got, want) for args, got, want in cells if got != want]
    return res


def rule2_bridge(a: int, family: str, n: int, oracle) -> tuple[list, int, str, int]:
    """The rule2 terms at height a with their counts, and the width step they sum to.

    The step is count(a, b+1) - count(a, b) at the upper family's b = a(n+1) - 2,
    and count(a, b) - count(a, b-1) at the lower family's b = an + 2.
    ``oracle(a, b)`` counts a rectangle's paths.  Returns (terms, sum, step
    label, step), each term (left, right, left count, right count).
    """
    terms = [
        (left, right, oracle(*left), oracle(*right))
        for left, right in comparison.rule2_terms(a, family, n)
    ]
    total = sum(lc * rc for _, _, lc, rc in terms)
    wide = a * (n + 1) - 1 if family == "upper" else a * n + 2
    narrow = wide - 1
    diff = oracle(a, wide) - oracle(a, narrow)
    return terms, total, f"count({a},{wide}) - count({a},{narrow})", diff


def diagram_lists(width: int):
    """``paths(a, b)``, b <= width: the diagrams of enumerate_paths(a, b), in its order.

    Each height is enumerated once, at ``width``, when first asked for: its
    paths come in the order of their down-step positions, whatever the width,
    and a diagram nu fits the a x b staircase exactly when
    b >= ceil(a*nu_r/(a-r)) for every row r, so each list is the height's,
    filtered.  A b past ``width`` raises ValueError, so lists too narrow for
    a sweep cannot shrink it.
    """
    @cache
    def widths(a):  # each diagram with the least width it fits
        least = [[-(-a * v // (a - r)) for v in range(width + 1)] for r in range(1, a)]
        return [
            (max(map(getitem, least, mu)) if mu else 0, mu)
            for _, mu in diagrams.enumerate_paths(a, width)
        ]

    @cache
    def paths(a, b):
        if b > width:
            raise ValueError(f"width {b} exceeds the lists' width {width}")
        return [mu for least, mu in widths(a) if least <= b]

    return paths


def check_split_contract(max_a: int, max_b: int, count, paths) -> CheckResult:
    res = CheckResult("split-contract-exhaustive")

    @cache
    def corners(mu) -> tuple[int, list]:  # the cells and failures mu adds at every visit
        want, cells, failures = count(mu), 0, []
        for r, (row, beyond) in enumerate(zip(mu, (*mu[1:], 0)), 1):
            if row > beyond:
                slim, upper, lower = comparison.through_box_split(mu, r)
                got = count(slim) + count(upper) * count(lower)
                cells += 1
                if got != want:
                    failures.append(f"split of {mu} at row {r}: {got}, oracle {want}")
        return cells, failures

    for a in range(1, min(max_a, 6) + 1):
        for b in range(1, min(max_b, 8) + 1):
            for mu in paths(a, b):
                cells, failures = corners(mu)
                res.cells += cells
                res.failures += failures
    return res


def check_decomposition(max_a: int, max_b: int, count, oracle, paths) -> CheckResult:
    res = CheckResult("decomposition-vs-oracle")
    # One table for the sweep: its diagrams share many rows, values and all.
    rows, at = [], {}

    def value(mu):
        return rows[decomposition._build(mu, rows, at)][1]

    for a in range(1, min(max_a, 5) + 1):
        for b in range(1, min(max_b, 7) + 1):
            for mu in paths(a, b):
                want, got = count(mu), value(mu)
                res.check(got == want, "decompose({}) values to {}, oracle {}", mu, got, want)
    for a in range(1, max_a + 1):
        for b in range(1, max_b + 1):
            want, got = oracle(a, b), value(diagrams.christoffel_diagram(a, b))
            res.check(
                got == want,
                "decompose of the {}x{} staircase values to {}, oracle {}", a, b, got, want,
            )
    return res


def check_special_r(max_a: int, max_b: int) -> CheckResult:
    res = CheckResult("special-row-guard")
    for a in range(2, max(max_a, max_b, 2) + 1):
        try:
            got = christoffel.special_r(a)
        except ArithmeticError as err:  # guard tripping is the failure mode
            res.check(False, "special_r({}) aborted: {}", a, err)
            continue
        res.check(got == a - 1, "special_r({}) = {}", a, got)
    return res


def run_identity_checks(max_a: int, max_b: int) -> list[CheckResult]:
    """The staircase box-count and row-profile identity sweeps."""
    return [
        check_cells("q-boxes-vs-row-sum", "q_boxes({},{}) = {}, row sum {}", (
            ((a, b), christoffel.q_boxes(a, b), sum(diagrams.christoffel_diagram(a, b)))
            for a in range(1, max_a + 1) for b in range(1, max_b + 1)
        )),
        check_cells("delta-rows-vs-q-step", "delta rows for ({},{}) sum to {}, q step {}", (
            ((a, b), sum(christoffel.delta(a, b, l) for l in range(1, a)),
             christoffel.q_boxes(a, b) - christoffel.q_boxes(a, b - 1))
            for a in range(2, max_a + 1) for b in range(a + 1, max_b + 1)
        )),
        check_cells("delta-closed-forms", "delta(2*{0},{1},{2}) = {4}, {3} form {5}", (
            ((k, b, l, family), christoffel.delta(2 * k, b, l), form(k, n, l))
            for k in range(1, min(8, max(1, max_a // 2)) + 1) for n in range(9)
            for l in range(1, 2 * k) for b, family, form in (
                (2 * k * (n + 1) - 1, "upper", christoffel.delta_closed_upper),
                (2 * k * n + 2, "lower", christoffel.delta_closed_lower),
            )
        )),
        check_special_r(max_a, max_b),
    ]


def run_verify(max_a: int, max_b: int, fam_k: int, fam_n: int) -> list[CheckResult]:
    """Every sweep: formulas, theorems, splitting, decomposition, identities."""
    rows, cols, ks = range(1, max_a + 1), range(1, max_b + 1), range(1, fam_k + 1)
    # One oracle of each kind for the run: the route-vs-oracle checks share
    # most rectangles, and the two diagram sweeps most diagrams, which they
    # take from one list a height, enumerated at the split sweep's widest width.
    oracle, count = cache(diagrams.count_rect), cache(diagrams.count_paths)
    paths = diagram_lists(min(max_b, 8))
    vs, rule2 = " = {}, oracle {}", "rule2({},{},{}) terms sum to {}, width step {}"
    return [
        check_cells("coprime-formula-vs-oracle", "coprime({},{})" + vs, (
            ((a, b), formulas.coprime_catalan(a, b), oracle(a, b))
            for a in rows for b in cols if ROUTES["coprime"].applies(a, b)
        )),
        check_cells("fuss-formula-vs-oracle", "fuss({},{})" + vs, (
            ((a, b // a), formulas.fuss_catalan(a, b // a), oracle(a, b))
            for a in rows for b in cols if ROUTES["fuss"].applies(a, b)
        )),
        check_cells("prime-dispatch-vs-oracle", "prime_rect({},{})" + vs, (
            ((p, b), formulas.prime_rect(p, b), oracle(p, b))
            for p in rows if formulas._is_prime(p) for b in cols
        )),
        check_cells("bizley-vs-oracle", "bizley({},{})" + vs, (
            ((a, b), bizley.bizley_count(a, b), oracle(a, b)) for a in rows for b in cols
        )),
        check_cells("catalan-on-squares", "catalan({})" + vs, (
            ((n,), formulas.catalan(n), oracle(n, n)) for n in range(1, min(max_a, max_b, 10) + 1)
        )),
        check_cells("theorem1-vs-oracle", "theorem1({},{})" + vs, (
            ((k, n), comparison.theorem1_count(k, n), oracle(2 * k, 2 * k * (n + 1) - 2))
            for k in ks for n in range(0, fam_n + 1) if 2 * k * (n + 1) - 2 >= 1
        )),
        check_cells("theorem2-vs-oracle", "theorem2({},{})" + vs, (
            ((k, n), comparison.theorem2_count(k, n), oracle(2 * k, 2 * k * n + 2))
            for k in ks for n in range(1, fam_n + 1)
        )),
        # The upper family starts at n = 1: n = 0 is degenerate or of width zero.
        check_cells("rule2-upper-telescopes", rule2, (
            ((2 * k, "upper", n), *rule2_bridge(2 * k, "upper", n, oracle)[1::2])
            for k in ks for n in range(1, fam_n + 1)
        )),
        check_cells("rule2-lower-telescopes", rule2, (
            ((2 * k, "lower", n), *rule2_bridge(2 * k, "lower", n, oracle)[1::2])
            for k in ks for n in range(0, fam_n + 1)
        )),
        check_split_contract(max_a, max_b, count, paths),
        check_decomposition(max_a, max_b, count, oracle, paths),
        *run_identity_checks(max_a, max_b),
    ]
