"""Seeded request streams for the three benchmark workloads.

A stream is an endless sequence of rounds.  Every round of a workload holds
the same request kinds in the same numbers; the seed draws each request's
parameters and shuffles the round.  Fixing the mix per round keeps the
figures of runs with different seeds comparable, and a run always ends on a
round boundary.  No request repeats its inputs within a stream: the
decomposition memo inside the program persists across in-process requests,
so a repeat would measure that cache instead of the request.

The generator never calls the program under test.  The facts it needs
about a rectangle (which ``auto`` route the paper's families put it in, its
maximal staircase) are worked out here from their definitions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("count", "verify", "structures")

WHY = {
    "count": (
        "what a CLI user runs: count under auto on every route up to the gcd-40 "
        "partition-sum fallback, plus explicit methods, --json and --cache; "
        "bizley dominates time, CLI dispatch the median"
    ),
    "verify": (
        "the paper's cross-checks: verify, identities and expand make thousands "
        "of tiny oracle, enumeration and decomposition calls; the partition sum "
        "sees gcd <= 12 only"
    ),
    "structures": (
        "a few large calls: decompose (text, --json, --diagram) and enumerate; "
        "tree build, fold, render and output formatting dominate, peak memory "
        "matters, no partition sum"
    ),
}

# Which end-to-end metric each layer should move, and on which workload.
# Later changes are checked against these predictions.
PREDICTIONS = {
    "cli": "latency_p50_ms on count; latency_tail_ms on structures",
    "diagrams": "requests_per_s on verify; latency_tail_ms and peak_rss_mb on "
    "structures; barely count",
    "formulas": "latency_p50_ms on count",
    "bizley": "requests_per_s and latency_tail_ms on count; nothing on verify "
    "or structures",
    "comparison": "count (theorem-route requests) and verify",
    "christoffel": "verify (the identities requests)",
    "decomposition": "latency_tail_ms, requests_per_s and peak_rss_mb on "
    "structures; verify only a little",
    "verify": "requests_per_s on verify",
}

# The traced run covers this many rounds: enough to touch every request kind
# while keeping the spans small enough to hold in memory.
TRACE_ROUNDS = {"count": 1, "verify": 2, "structures": 10}

# A stream ends after this many rounds, before its pools of distinct inputs
# run low; a run that is fast enough to reach it measures fewer seconds.
MAX_ROUNDS = {"count": 16, "verify": 70, "structures": 45}

# Partition-sum fallbacks of one count round, by gcd.  Their cost grows
# super-polynomially with the gcd (about 14 ms at 18, 0.3 s at 32, 1.3 s at
# 40), so a fixed ladder per round keeps the mix the same for every seed.
# Three requests at gcd 40 keep the latency tail inside one class of request.
FALLBACK_GCDS = (4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 40, 40)

# Request pools by CLI cost, measured one request at a time on a 2-core
# x86-64 machine under Python 3.11: heavy 0.33..0.52 s, medium 35..110 ms
# (decompositions) or 40..65 ms (enumerations), light 5..15 ms.  Each entry
# lists the output formats that fell in the band.  Decompositions were timed
# for 3 <= a <= 24, 3 <= b <= 45 and a <= 5, b <= 60, and no rectangle is in
# two of their pools; enumerations for a, b <= 48 (text) and for a or b at
# most 6 with the other side up to 259 (text and --json).
DECOMPOSE_HEAVY = {
    (5, 39): 'json', (5, 40): 'text json', (5, 41): 'text json',
    (5, 42): 'json', (5, 43): 'json', (5, 44): 'text', (6, 28): 'json',
    (6, 30): 'text', (6, 31): 'text', (7, 24): 'json', (7, 25): 'text json',
    (8, 22): 'json', (8, 23): 'text', (9, 22): 'text json', (10, 20): 'json',
    (10, 21): 'text json', (11, 21): 'json', (13, 22): 'text',
    (14, 22): 'json', (15, 23): 'text', (17, 10): 'json',
    (17, 11): 'text json', (18, 8): 'json', (18, 13): 'text', (18, 25): 'text',
    (19, 8): 'text json', (19, 15): 'text', (21, 7): 'text', (21, 18): 'text',
    (22, 7): 'text json', (22, 19): 'text json', (23, 29): 'text json',
}
DECOMPOSE_MEDIUM = {
    (4, 36): 'text json', (4, 38): 'json', (4, 39): 'json',
    (4, 40): 'text json', (4, 41): 'text json', (4, 42): 'text json',
    (4, 43): 'text json', (4, 44): 'text json', (4, 45): 'text json',
    (4, 46): 'text json', (4, 47): 'text json', (4, 48): 'text json',
    (4, 49): 'text json', (4, 50): 'text json', (4, 51): 'text json',
    (4, 52): 'text json', (4, 53): 'text', (4, 54): 'text', (4, 55): 'text',
    (5, 28): 'text json', (5, 29): 'text json', (5, 30): 'text',
    (5, 31): 'text', (5, 32): 'text json', (5, 33): 'text',
    (6, 18): 'text json', (6, 19): 'text json', (6, 20): 'text json',
    (6, 21): 'text json', (6, 22): 'text json', (6, 23): 'text json',
    (7, 18): 'text json', (7, 19): 'text json', (7, 20): 'text json',
    (8, 16): 'text json', (8, 17): 'json', (8, 18): 'text json',
    (8, 19): 'text', (9, 18): 'text json', (9, 19): 'text', (10, 18): 'json',
    (10, 19): 'text json', (11, 19): 'text json', (12, 18): 'text json',
    (12, 19): 'text json', (12, 20): 'text', (13, 19): 'text json',
    (13, 20): 'text json', (14, 7): 'json', (14, 20): 'text json',
    (15, 7): 'json', (15, 8): 'json', (15, 9): 'text json', (15, 11): 'json',
    (15, 20): 'text json', (15, 21): 'text json', (16, 7): 'text json',
    (16, 9): 'text', (16, 11): 'text json', (16, 12): 'text',
    (16, 21): 'text json', (16, 22): 'text', (17, 6): 'json',
    (17, 7): 'text json', (17, 8): 'text', (17, 13): 'text', (17, 14): 'json',
    (17, 22): 'text json', (18, 6): 'text json', (18, 7): 'text json',
    (18, 15): 'text json', (18, 23): 'text json', (19, 6): 'text json',
    (19, 7): 'text', (19, 16): 'text json', (19, 24): 'text json',
    (20, 6): 'text json', (20, 25): 'text json', (21, 6): 'text json',
    (21, 26): 'text json', (22, 6): 'text json', (22, 26): 'text',
    (22, 27): 'text json', (23, 5): 'text json', (23, 27): 'text json',
    (23, 28): 'text', (24, 5): 'text json', (24, 22): 'text json',
    (24, 28): 'text json',
}
ENUMERATE_HEAVY = {
    (3, 157): 'json', (3, 160): 'text json', (3, 161): 'text json',
    (3, 164): 'text', (3, 165): 'text json', (3, 166): 'json',
    (3, 167): 'text', (3, 168): 'json', (3, 172): 'text json',
    (3, 173): 'json', (3, 174): 'text json', (3, 175): 'text json',
    (3, 176): 'text json', (3, 177): 'text json', (3, 178): 'text json',
    (3, 179): 'text', (3, 182): 'json', (3, 183): 'text json',
    (3, 184): 'text json', (3, 186): 'json', (3, 188): 'text',
    (3, 189): 'json', (3, 192): 'text', (4, 64): 'text', (4, 66): 'json',
    (4, 67): 'text', (4, 68): 'text json', (4, 69): 'text json',
    (4, 70): 'text json', (4, 71): 'text json', (4, 72): 'text',
    (4, 73): 'text', (5, 35): 'text json', (5, 36): 'json', (5, 37): 'text',
    (5, 38): 'text', (5, 39): 'text', (6, 21): 'text', (6, 24): 'text',
    (6, 25): 'text', (7, 19): 'text', (8, 15): 'text', (9, 13): 'text',
    (10, 10): 'text', (13, 9): 'text', (14, 8): 'text', (15, 8): 'text',
    (17, 7): 'text', (21, 6): 'text', (22, 6): 'text', (23, 6): 'text',
    (31, 5): 'json', (32, 5): 'json', (33, 5): 'text json', (53, 4): 'json',
    (55, 4): 'json', (56, 4): 'text', (57, 4): 'json', (58, 4): 'text json',
    (59, 4): 'text json', (60, 4): 'text json', (61, 4): 'text json',
    (62, 4): 'text', (121, 3): 'json', (122, 3): 'text json', (123, 3): 'json',
    (124, 3): 'json', (126, 3): 'json', (127, 3): 'text json',
    (128, 3): 'text json', (129, 3): 'text json', (130, 3): 'text json',
    (131, 3): 'text json', (132, 3): 'text json', (133, 3): 'text json',
    (134, 3): 'text json', (135, 3): 'text', (140, 3): 'text',
}
ENUMERATE_MEDIUM = {
    (3, 78): 'json', (3, 85): 'text json', (3, 87): 'text json',
    (3, 91): 'json', (3, 92): 'text json', (3, 93): 'text json',
    (3, 99): 'json', (3, 100): 'text json', (4, 32): 'json',
    (4, 33): 'text json', (4, 34): 'text json', (4, 35): 'text json',
    (4, 36): 'text json', (4, 37): 'text json', (4, 38): 'text',
    (4, 39): 'text', (5, 20): 'text json', (5, 21): 'text json',
    (5, 22): 'json', (5, 23): 'text json', (6, 15): 'text', (7, 12): 'text',
    (7, 13): 'text', (8, 10): 'text', (10, 8): 'text', (12, 7): 'text',
    (14, 6): 'text', (15, 6): 'text', (18, 5): 'json', (19, 5): 'text json',
    (20, 5): 'text', (21, 5): 'text json', (22, 5): 'text', (29, 4): 'json',
    (30, 4): 'text json', (31, 4): 'text json', (32, 4): 'text',
    (54, 3): 'json', (61, 3): 'json', (62, 3): 'json', (63, 3): 'text json',
    (64, 3): 'text json', (65, 3): 'text json', (66, 3): 'text json',
    (67, 3): 'json', (68, 3): 'text json', (69, 3): 'text json',
    (70, 3): 'text', (71, 3): 'text json', (72, 3): 'text json',
    (76, 3): 'text json', (77, 3): 'text json', (81, 3): 'text',
}
ENUMERATE_LIGHT = {
    (3, 29): 'text json', (3, 30): 'text json', (3, 31): 'text json',
    (3, 32): 'text json', (3, 33): 'text json', (3, 34): 'text json',
    (3, 35): 'text json', (3, 36): 'text json', (3, 37): 'text',
    (3, 38): 'json', (3, 39): 'text json', (3, 40): 'text json',
    (3, 41): 'text json', (3, 42): 'text json', (3, 43): 'text json',
    (3, 44): 'text json', (3, 45): 'text json', (3, 46): 'text json',
    (3, 47): 'text json', (3, 48): 'text json', (3, 49): 'text json',
    (3, 50): 'text json', (3, 55): 'text', (4, 14): 'text json',
    (4, 15): 'text json', (4, 16): 'text json', (4, 17): 'text json',
    (4, 18): 'text json', (4, 19): 'text json', (4, 20): 'text json',
    (4, 21): 'text json', (4, 22): 'text json', (4, 23): 'text json',
    (4, 24): 'text', (4, 27): 'text', (5, 10): 'text json',
    (5, 11): 'text json', (5, 12): 'text json', (5, 13): 'text json',
    (5, 14): 'text json', (6, 8): 'text', (6, 9): 'text', (6, 10): 'text',
    (6, 11): 'text', (7, 7): 'text', (7, 8): 'text', (7, 9): 'text',
    (8, 6): 'text', (8, 7): 'text', (9, 6): 'text', (9, 7): 'text',
    (10, 5): 'text json', (11, 5): 'text json', (12, 5): 'text json',
    (13, 5): 'text json', (14, 4): 'text json', (15, 4): 'json',
    (16, 4): 'text', (17, 4): 'text json', (18, 4): 'text json',
    (19, 4): 'text json', (20, 4): 'text', (29, 3): 'text json',
    (30, 3): 'text json', (31, 3): 'text json', (32, 3): 'text json',
    (33, 3): 'text json', (34, 3): 'text json', (35, 3): 'text json',
    (36, 3): 'text json', (37, 3): 'text json', (38, 3): 'text json',
    (39, 3): 'text json', (40, 3): 'text json', (41, 3): 'text',
    (45, 3): 'text json',
}


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    command: str
    route: str  # the route or size class the generator aimed at
    round: int
    key: tuple  # what may not repeat within a stream (see _decompose_rect)


def theorem_family(a: int, b: int) -> bool:
    """True when b = a(n+1) - 2 or b = an + 2 for an even height a."""
    if a < 2 or a % 2:
        return False
    return (b + 2) % a == 0 or ((b - 2) % a == 0 and b - 2 >= a)


def auto_route(a: int, b: int) -> str:
    """The route `count --method auto` documents for a rectangle."""
    if math.gcd(a, b) == 1:
        return "coprime"
    if b % a == 0:
        return "fuss"
    if theorem_family(a, b):
        return "theorem"
    return "bizley"


def christoffel_rows(a: int, b: int) -> tuple[int, ...]:
    """Maximal staircase of the a x b rectangle, trailing zeros dropped."""
    rows = [b * (a - r) // a for r in range(1, a)]
    while rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)


def _logu(rng: random.Random, lo: int, hi: int) -> int:
    """Integer in [lo, hi], log-uniform, so small and large sides both show."""
    return min(hi, max(lo, round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


class _Round:
    """Draws one round's requests, refusing inputs already used in the stream."""

    def __init__(self, rng: random.Random, seen: set, index: int):
        self.rng, self.seen, self.index = rng, seen, index
        self.out: list[Request] = []

    def add(self, draw) -> None:
        for _ in range(1000):
            argv, command, route, key = draw(self.rng)
            if key not in self.seen:
                self.seen.add(key)
                self.out.append(Request(tuple(argv), command, route, self.index, key))
                return
        raise RuntimeError(f"no unused inputs left for a {command} {route} request")


# --- count -----------------------------------------------------------------

MAX_A, MAX_B = 300, 450


def _count_request(a, b, method, route, rng, cache_path):
    argv = ["count", str(a), str(b)]
    if method != "auto":
        argv += ["--method", method]
    if rng.random() < 0.2:
        argv.append("--json")
    if rng.random() < 0.1:
        argv += ["--cache", cache_path]
    return argv, "count", route, ("count", a, b, method)


def _coprime_sides(rng):
    while True:
        a, b = _logu(rng, 1, MAX_A), _logu(rng, 1, MAX_B)
        if math.gcd(a, b) == 1:
            return a, b


def _fuss_sides(rng):
    a = _logu(rng, 2, MAX_A // 2)
    return a, a * _logu(rng, 1, MAX_B // a)


def _theorem_sides(rng, family):
    while True:
        a = 2 * _logu(rng, 2, MAX_A // 2)
        if family == "upper":  # b = a(n+1) - 2, n >= 0
            top = (MAX_B + 2) // a - 1
            if top >= 0:
                return a, a * (rng.randint(0, top) + 1) - 2
        else:  # b = an + 2, n >= 1
            top = (MAX_B - 2) // a
            if top >= 1:
                return a, a * rng.randint(1, top) + 2


def _fallback_sides(rng, d):
    while True:  # either side may reach MAX_B: at gcd 40 few pairs fit otherwise
        p, q = rng.randint(1, MAX_B // d), rng.randint(1, MAX_B // d)
        if math.gcd(p, q) == 1 and auto_route(p * d, q * d) == "bizley":
            return p * d, q * d


def _count_round(r: _Round, cache_path: str) -> None:
    def req(sides, method, route):
        return lambda rng: _count_request(*sides(rng), method, route, rng, cache_path)

    def any_sides(rng):
        return _logu(rng, 1, MAX_A), _logu(rng, 1, MAX_B)

    def bizley_sides(rng):
        d = rng.randint(1, 20)
        while True:
            p, q = _logu(rng, 1, MAX_A // d), _logu(rng, 1, MAX_B // d)
            if math.gcd(p, q) == 1:
                return p * d, q * d

    upper = lambda rng: _theorem_sides(rng, "upper")  # noqa: E731
    lower = lambda rng: _theorem_sides(rng, "lower")  # noqa: E731
    kinds = [
        (70, req(_coprime_sides, "auto", "auto:coprime")),
        (30, req(_fuss_sides, "auto", "auto:fuss")),
        (15, req(upper, "auto", "auto:theorem")),
        (15, req(lower, "auto", "auto:theorem")),
        (20, req(any_sides, "oracle", "oracle")),
        (10, req(bizley_sides, "bizley", "bizley")),
        (10, req(_coprime_sides, "coprime", "coprime")),
        (10, req(_fuss_sides, "fuss", "fuss")),
        (5, req(upper, "theorem", "theorem")),
        (5, req(lower, "theorem", "theorem")),
    ]
    for n, draw in kinds:
        for _ in range(n):
            r.add(draw)
    for d in FALLBACK_GCDS:
        r.add(lambda rng, d=d: _count_request(
            *_fallback_sides(rng, d), "auto", "auto:bizley", rng, cache_path))


# --- verify ----------------------------------------------------------------

def _verify_draw(rng):
    a, b = rng.randint(6, 12), rng.randint(8, 16)
    argv = ["verify", "--max-a", str(a), "--max-b", str(b)]
    if rng.random() < 0.5:
        fam = rng.randint(1, 4), rng.randint(1, 4)
        argv += ["--families", str(fam[0]), str(fam[1])]
    else:  # the CLI's own default family range
        fam = min(4, max(1, a // 2)), 3
    return argv, "verify", "verify", ("verify", a, b, fam)


def _identities_draw(rng):
    a, b = rng.randint(10, 30), rng.randint(20, 60)
    return (["identities", "--max-a", str(a), "--max-b", str(b)],
            "identities", "identities", ("identities", a, b))


def _expand_draw(rng):
    a, n = 2 * rng.randint(2, 30), rng.randint(1, 4)
    b = a * (n + 1) - 2 if rng.random() < 0.5 else a * n + 2
    return ["expand", str(a), str(b)], "expand", "expand", ("expand", a, b)


def _verify_round(r: _Round) -> None:
    if r.index == 0:  # the defaults, whose totals are pinned by the checks
        r.seen.add(("verify", 8, 10, (4, 3)))
        r.out.append(Request(("verify",), "verify", "verify:default", 0,
                             ("verify", 8, 10, (4, 3))))
    # The median request is an identities sweep, the tail a full verify.
    for n, draw in ((4, _verify_draw), (5, _identities_draw), (3, _expand_draw)):
        for _ in range(n):
            r.add(draw)


# --- structures ------------------------------------------------------------

def _decompose_rect(pool, route):
    # Keyed by the diagram, whatever the format: the decomposition memo would
    # answer a second request for the same diagram from cache.
    rects = sorted(pool)

    def draw(rng):
        a, b = rng.choice(rects)
        argv = ["decompose", str(a), str(b)]
        if rng.choice(pool[a, b].split()) == "json":
            argv.append("--json")
        return argv, "decompose", route, ("decompose", christoffel_rows(a, b))
    return draw


def _decompose_diagram(rng):
    a = rng.randint(6, 12)
    bound = christoffel_rows(a, rng.randint(a, 18))
    rows, prev = [], None
    for s in bound:  # a near-maximal sub-diagram of the staircase
        top = s if prev is None else min(s, prev)
        prev = rng.randint(max(0, top - 2), top)
        rows.append(prev)
    while rows and rows[-1] == 0:
        rows.pop()
    argv = ["decompose", "--diagram", ",".join(map(str, rows))]
    return argv, "decompose", "decompose:diagram", ("decompose", tuple(rows))


def _enumerate_draw(pool, route):
    # No cache sits behind enumerate, so its text and --json forms are two
    # distinct requests.
    entries = [(a, b, fmt) for (a, b), fmts in sorted(pool.items()) for fmt in fmts.split()]

    def draw(rng):
        a, b, fmt = rng.choice(entries)
        argv = ["enumerate", str(a), str(b)] + (["--json"] if fmt == "json" else [])
        return argv, "enumerate", route, ("enumerate", a, b, fmt)
    return draw


def _structures_round(r: _Round) -> None:
    # One heavy, two medium and one light request: the median falls between
    # the medium ones and the latency tail inside the heavy class.
    even = r.index % 2 == 0
    kinds = (
        _decompose_rect(DECOMPOSE_HEAVY, "decompose:heavy") if even
        else _enumerate_draw(ENUMERATE_HEAVY, "enumerate:heavy"),
        _decompose_rect(DECOMPOSE_MEDIUM, "decompose:medium"),
        _enumerate_draw(ENUMERATE_MEDIUM, "enumerate:medium"),
        _decompose_diagram if even else _enumerate_draw(ENUMERATE_LIGHT, "enumerate:light"),
    )
    for draw in kinds:
        r.add(draw)


def stream(workload: str, seed: int, cache_path: str):
    """Yield the workload's requests, round after round, up to MAX_ROUNDS."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    seen: set = set()
    for index in range(MAX_ROUNDS[workload]):
        r = _Round(rng, seen, index)
        if workload == "count":
            _count_round(r, cache_path)
        elif workload == "verify":
            _verify_round(r)
        else:
            _structures_round(r)
        head = [q for q in r.out if q.route == "verify:default"]
        rest = [q for q in r.out if q.route != "verify:default"]
        rng.shuffle(rest)
        yield from head + rest
