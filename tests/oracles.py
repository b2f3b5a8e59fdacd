"""Brute-force reference routes the tests pin library results against.

Deliberately built on different ideas than the library: words come from
filtering every placement of the down steps, diagrams from filtering every
row filling, so a systematic error in the dynamic programs would have to be
reproduced here by coincidence to slip through.  Everything is exact and
deliberately slow; keep the ranges small.

walk_by_odometer is the enumeration as one odometer over all down steps,
each word and diagram spliced from the one before; depth_by_cost is the
depth its tables reach, costed at every depth with no early exit.

The two *_by_visits sweeps are the verify sweeps as they were before they
kept one result per diagram: they redo every diagram at every visit, each
decomposition a fresh table, so a cache or a shared table that dropped,
reordered or repeated a failure would not match them.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd, prod

from rectcat import comparison, decomposition, diagrams
from rectcat.verify import CheckResult


def words_by_filter(a: int, b: int) -> list[str]:
    """All (a,b)-Dyck words, by testing every placement of the a down steps.

    combinations() yields the down-step position sets in lexicographic
    order, which maps to lexicographic word order ("0" < "1"), so the
    result doubles as an ordering oracle.
    """
    words = []
    for downs in combinations(range(a + b), a):
        word = ["1"] * (a + b)
        for pos in downs:
            word[pos] = "0"
        seen_down = seen_right = 0
        ok = True
        for ch in word:
            if ch == "0":
                seen_down += 1
            else:
                seen_right += 1
                if b * seen_down < a * seen_right:
                    ok = False
                    break
        if ok:
            words.append("".join(word))
    return words


def count_by_filter(a: int, b: int) -> int:
    return len(words_by_filter(a, b))


def walk_by_odometer(a: int, b: int, word: str):
    """Every (a,b)-Dyck path from ``word``, the first, as the library listed them
    before it tabled the last down steps: one odometer over every down step.

    ``enumerate_paths(a, b)`` must yield exactly these pairs, in this order,
    whatever depth it tables, and its line forms the same paths as text.
    """
    # An odometer over the down-step positions, xs[i] running from xs[i-1] up
    # to b*i // a: advance the last position below its bound to v and pull
    # every later one up to v, the least each may take.  Word and diagram are
    # both spliced from the ones before.  The word keeps everything up to down
    # step i-1, which sits at xs[i-1] + i - 1, then runs right to v, steps down
    # a - i times and runs right to b.  The diagram, bottom row first, is v
    # repeated a - i times followed by the rows above down step i, which it
    # keeps: they are the last kept[i] items of the one before.  Zero rows are
    # never written, so none trail.
    bounds = [b * i // a for i in range(a)]
    xs = [0] * a
    kept = [0] * a
    rows = ()
    while True:
        yield word, rows
        i = a - 1
        while i and xs[i] == bounds[i]:
            i -= 1
        if not i:
            return
        x, v, n = xs[i - 1], xs[i] + 1, a - i
        word = word[: x + i] + "1" * (v - x) + "0" * n + "1" * (b - v)
        xs[i:] = [v] * n
        k = kept[i]
        rows = (v,) * n + rows[len(rows) - k :]
        if n > 1:
            kept[i + 1 :] = range(k + 1, k + n)


def depth_by_cost(a: int, b: int) -> int:
    """The table depth enumerate_paths' cost model asks for, every depth costed in full.

    Depth k tables the last k down steps, and its odometer runs over the
    first p = a - k.  Its cost is every position the odometer writes, one
    for each setting of each prefix of the first p steps, plus _SETTING for
    each setting of all p, plus every table entry, plus _TABLE for each
    table list; depth 0 costs the positions written plus _PATH for each
    path.  A depth is out when two adjacent levels of its tables, the
    deepest one beside none, hold more than _TABLE_LETTERS letters, each
    entry counted as its word and 100 more.  The cheapest depth left wins,
    the smaller one on a tie.  The settings are _heads' forward counts; the
    table sizes are counted here, from the last down step up, with no early
    exit.
    """
    heads = diagrams._heads(a, b)
    z = a + 1 - len(heads)  # ceil(a/b): the first z steps have one setting
    settings = [1] * (z - 1) + heads  # settings[p - 1]: over the first p steps
    costs = {0: sum(settings) + diagrams._PATH * heads[-1]}
    # below[v]: completions of the steps past level j when step j sits at v.
    below = [1] * (b + 1)
    entries = lists = last = 0
    fits = True
    for j in range(a - 1, z - 1, -1):
        level, run = [], 0
        for v in range(b * j // a, -1, -1):
            run += below[v]
            level.append(run)
        level.reverse()  # level[y]: completions of steps j..a-1 after step j - 1 at y
        letters = sum(c * (a - j + b - y + 100) for y, c in enumerate(level))
        fits = fits and letters + last <= diagrams._TABLE_LETTERS
        entries += sum(level)
        lists += len(level)
        if fits:
            costs[a - j] = (
                sum(settings[:j])
                + diagrams._SETTING * settings[j - 1]
                + entries
                + diagrams._TABLE * lists
            )
        below, last = level, letters
    return min(costs, key=lambda k: (costs[k], k))


def ballot_by_filter(a: int, b: int, k: int) -> int:
    """Paths (0,0) -> (a,b) of unit east and north steps never below y = k*x.

    Walks every placement of the a east steps and keeps the walks whose
    every point has y >= k*x.
    """
    hits = 0
    for easts in map(set, combinations(range(a + b), a)):
        x = y = 0
        for step in range(a + b):
            if step in easts:
                x += 1
            else:
                y += 1
            if y < k * x:
                break
        else:
            hits += 1
    return hits


def ballot_by_dp(a: int, b: int, k: int) -> int:
    """The same count as ballot_by_filter, by a column-by-column dynamic program.

    O(ab) additions, so it reaches the widths a full walk filter cannot.
    """
    # row[y] counts the paths to (x, y), one column x at a time; column 0 is one each.
    row = [1] * (b + 1)
    for x in range(1, a + 1):
        for y in range(b + 1):
            if y < k * x:
                row[y] = 0
            elif y:
                row[y] += row[y - 1]
    return row[b]


def avoidance_by_binomials(n: int, k: int) -> int:
    """C(2(k+1)n, 2n) - (k-1) * sum_{i<2n} C(2(k+1)n, i), one comb call per binomial."""
    length = 2 * (k + 1) * n
    return comb(length, 2 * n) - (k - 1) * sum(comb(length, i) for i in range(2 * n))


def avoidance_by_filter(n: int, k: int) -> int:
    """Walks of 2(k+1)n unit east and north steps from the origin never below y = k*x.

    Every endpoint (a, length - a) of such a walk, each filtered by
    ballot_by_filter: 2^length walks in all, so keep length small.
    """
    length = 2 * (k + 1) * n
    return sum(ballot_by_filter(a, length - a, k) for a in range(length + 1))


def subdiagrams_by_filter(mu) -> list[tuple[int, ...]]:
    """All weakly decreasing row fillings bounded row-wise by ``mu``.

    Rows are bottom-up like everywhere else; the fillings keep trailing
    zeros, so normalize before handing them to the library.
    """
    hits = []
    for rows in product(*(range(m + 1) for m in mu)):
        if all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)):
            hits.append(rows)
    return hits


def count_subdiagrams(mu) -> int:
    return len(subdiagrams_by_filter(mu))


def _partitions_by_multiplicity(d: int, largest: int):
    """Partitions of d into parts <= largest, as {part: multiplicity} dicts.

    Chooses how often ``largest`` occurs, then recurses on the smaller parts,
    so it shares no code or order with the library's generator.
    """
    if d == 0:
        yield {}
        return
    if largest == 0:
        return
    for mult in range(d // largest + 1):
        for rest in _partitions_by_multiplicity(d - mult * largest, largest - 1):
            yield {largest: mult, **rest} if mult else rest


def z_lambda(parts) -> int:
    """Centralizer constant z_lambda = prod_i i^{m_i} * m_i! over part multiplicities."""
    return prod(part**mult * factorial(mult) for part, mult in Counter(parts).items())


def count_by_partition_sum(m: int, n: int) -> int:
    """Bizley's partition sum, term by term, over every partition of gcd(m, n).

    The term of a partition with multiplicities m_j is prod_j phi_j^{m_j} / m_j!
    with phi_j = C(j(a+b), ja) / (j(a+b)).  Exponential in gcd(m, n): keep it
    small.
    """
    d = gcd(m, n)
    a, b = m // d, n // d
    phi = {j: Fraction(comb(j * (a + b), j * a), j * (a + b)) for j in range(1, d + 1)}
    total = sum(
        prod(phi[j] ** mult / factorial(mult) for j, mult in lam.items())
        for lam in _partitions_by_multiplicity(d, d)
    )
    if total.denominator != 1:
        raise ArithmeticError(f"partition sum for {m}x{n} is not integral: {total}")
    return int(total)


def normal_form(rows, x: int | None = None) -> list[tuple[str, ...]]:
    """Sum-of-products expansion of row ``x`` of a decomposition table, by plain recursion.

    ``x`` is the last row unless given.  A term is the tuple of its iso labels
    "C<n>" in construction order, one factors dropped; a split row
    t_i + t_j * t_k lists the terms of t_i, then every combination of a term
    of t_j and a term of t_k, t_j outermost.  Rows are told apart by their
    kind, and shared rows are expanded afresh wherever they occur: keep the
    tables small.
    """
    row = rows[len(rows) - 1 if x is None else x]
    if row[0] == "split":
        _, _, i, j, k = row
        products = [s + t for s in normal_form(rows, j) for t in normal_form(rows, k)]
        return normal_form(rows, i) + products
    if row[0] == "iso":
        return [(f"C{row[2]}",)]
    return [()]


def tree(rows, x: int | None = None) -> dict:
    """Expression tree of row ``x`` of a decomposition table as plain dicts, by plain recursion.

    ``x`` is the last row unless given.  Schema: {"type":"one"} |
    {"type":"iso","n":N} | {"type":"sum","terms":[...]} |
    {"type":"prod","factors":[...]}; a split row t_i + t_j * t_k is the sum
    of t_i and the product of t_j and t_k, keys in that order.  Shared rows
    are expanded afresh wherever they occur: keep the tables small.
    """
    row = rows[len(rows) - 1 if x is None else x]
    if row[0] == "split":
        _, _, i, j, k = row
        product = {"type": "prod", "factors": [tree(rows, j), tree(rows, k)]}
        return {"type": "sum", "terms": [tree(rows, i), product]}
    if row[0] == "iso":
        return {"type": "iso", "n": row[2]}
    return {"type": "one"}


def iso_rows(n: int) -> tuple[int, ...]:
    """Rows of the isosceles staircase I_n = (n-1, ..., 1), bottom-up."""
    if n < 1:
        raise ValueError(f"staircase index must be positive, got {n}")
    return tuple(range(n - 1, 0, -1))


def max_isosceles_by_scan(mu) -> int:
    """Largest n with I_n = (n-1, ..., 1) inside ``mu``, trying each n in turn.

    ``mu`` is a normalized diagram, rows bottom-up.
    """
    n = 1
    while n <= len(mu) and all(mu[r - 1] >= n + 1 - r for r in range(1, n + 1)):
        n += 1
    return n


def corner_by_scan(mu) -> int:
    """Row of ``mu``, bottom-up from 1, whose corner box the splitting rule removes.

    The largest staircase I_n inside ``mu`` by ``max_isosceles_by_scan``, then
    the topmost row holding more boxes than I_n's, or 0 when none does.
    """
    n = max_isosceles_by_scan(mu)
    return next((r for r in range(len(mu), 0, -1) if mu[r - 1] > n - r), 0)


def split_contract_by_visits(max_a: int, max_b: int) -> CheckResult:
    """verify.check_split_contract, every outer corner worked out at every visit."""
    res = CheckResult("split-contract-exhaustive")
    count = diagrams.count_paths
    for a in range(1, min(max_a, 6) + 1):
        for b in range(1, min(max_b, 8) + 1):
            for _, mu in diagrams.enumerate_paths(a, b):
                want = count(mu)
                for r in range(1, len(mu) + 1):
                    beyond = mu[r] if r < len(mu) else 0
                    if mu[r - 1] <= beyond:
                        continue
                    slim, upper, lower = comparison.through_box_split(mu, r)
                    got = count(slim) + count(upper) * count(lower)
                    res.check(
                        got == want, "split of {} at row {}: {}, oracle {}", mu, r, got, want
                    )
    return res


def decomposition_by_visits(max_a: int, max_b: int) -> CheckResult:
    """verify.check_decomposition, every diagram decomposed afresh and counted at every visit."""
    res = CheckResult("decomposition-vs-oracle")
    for a in range(1, min(max_a, 5) + 1):
        for b in range(1, min(max_b, 7) + 1):
            for _, mu in diagrams.enumerate_paths(a, b):
                want = diagrams.count_paths(mu)
                got = decomposition.h_value(decomposition.decompose(mu))
                res.check(got == want, "decompose({}) values to {}, oracle {}", mu, got, want)
    for a in range(1, max_a + 1):
        for b in range(1, max_b + 1):
            mu = diagrams.christoffel_diagram(a, b)
            want = diagrams.count_rect(a, b)
            got = decomposition.h_value(decomposition.decompose(mu))
            res.check(
                got == want,
                "decompose of the {}x{} staircase values to {}, oracle {}", a, b, got, want,
            )
    return res
