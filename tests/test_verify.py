"""The verify sweeps do each distinct piece of work once per call, and say the same."""

import os
import subprocess
import sys
from collections import Counter
from functools import cache

import pytest

from oracles import decomposition_by_visits, split_contract_by_visits
from rectcat import bizley, christoffel, comparison, decomposition, diagrams, formulas, verify
from rectcat.diagrams import as_diagram

ROUTE_CHECKS = [
    "coprime-formula-vs-oracle",
    "fuss-formula-vs-oracle",
    "prime-dispatch-vs-oracle",
    "bizley-vs-oracle",
    "catalan-on-squares",
    "theorem1-vs-oracle",
    "theorem2-vs-oracle",
]
RULE2_CHECKS = ["rule2-upper-telescopes", "rule2-lower-telescopes"]


def _count_paths_off_by_one(monkeypatch):  # on every diagram of two or more rows
    oracle = diagrams.count_paths
    monkeypatch.setattr(diagrams, "count_paths", lambda mu: oracle(mu) + (len(as_diagram(mu)) >= 2))


def _split_drops_lower(monkeypatch):
    split = comparison.through_box_split

    def drop_lower(mu, r):
        slimmed, upper, _ = split(mu, r)
        return slimmed, upper, ()

    monkeypatch.setattr(comparison, "through_box_split", drop_lower)


def _catalan_plus_one(monkeypatch):
    catalan = decomposition.catalan
    monkeypatch.setattr(decomposition, "catalan", lambda n: catalan(n) + 1)


FAULTS = {
    "clean": lambda monkeypatch: None,
    "count-paths-off-by-one": _count_paths_off_by_one,
    "split-drops-lower": _split_drops_lower,
    "catalan-plus-one": _catalan_plus_one,
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("bounds", [(1, 1), (3, 4), (6, 8), (8, 10), (12, 16)])
def test_diagram_memo_matches_the_per_visit_sweeps(monkeypatch, fault, bounds):
    FAULTS[fault](monkeypatch)
    # One diagram oracle for both sweeps and one rectangle oracle, made after
    # the fault, as run_verify makes them.
    count, oracle, failures = cache(diagrams.count_paths), cache(diagrams.count_rect), []
    paths = verify.diagram_lists(min(bounds[1], 8))
    for got, want in (
        (verify.check_split_contract(*bounds, count, paths), split_contract_by_visits(*bounds)),
        (verify.check_decomposition(*bounds, count, oracle, paths), decomposition_by_visits(*bounds)),
    ):
        assert (got.name, got.cells) == (want.name, want.cells)
        assert got.failures == want.failures
        failures += got.failures
    # Each fault shows in one sweep or both, except on the 1x1 grid's empty diagram.
    assert bool(failures) == (fault != "clean" and bounds != (1, 1))


@pytest.mark.parametrize("name", list(verify.ROUTES))
def test_every_route_refuses_bad_sides_as_check_rect(name):
    # A route is asked nothing before the sides are checked: fuss would
    # divide by zero at 0x6, and the oracle would apply.
    for a, b in [(0, 6), (6, 0), (-1, 3)]:
        message = f"^rectangle sides must be positive integers, got {a}x{b}$"
        with pytest.raises(ValueError, match=message):
            verify.first_route(a, b, [name])


def test_route_checks_share_one_oracle(monkeypatch):
    # The rule2 checks take the run's oracle too, and enumerate_paths sizes
    # its walk with its own count, so the run asks count_rect once per
    # distinct rectangle.
    count_rect, asked = diagrams.count_rect, []

    def spy(a, b):
        asked.append((a, b))
        return count_rect(a, b)

    monkeypatch.setattr(diagrams, "count_rect", spy)
    checks = verify.run_verify(8, 10, 4, 3)
    assert all(c.passed for c in checks)
    assert len(set(asked)) == 113
    assert len(asked) == 113

    monkeypatch.setattr(diagrams, "count_rect", lambda a, b: count_rect(a, b) + 1)
    faulty = verify.run_verify(8, 10, 4, 3)
    assert [c.name for c in faulty[:9]] == [*ROUTE_CHECKS, *RULE2_CHECKS]
    for c in faulty[:7]:
        assert c.cells and len(c.failures) == c.cells, c.name
    # The rule2 checks count with the same oracle, so the fault shows there too.
    assert all(c.failures for c in faulty[7:9])

    monkeypatch.undo()
    clean = verify.run_verify(8, 10, 4, 3)
    assert all(c.passed for c in clean)
    assert sum(c.cells for c in clean) == 3418


def test_diagram_sweeps_share_one_oracle(monkeypatch):
    # The split-contract and decomposition sweeps take the run's one cache of
    # count_paths, so the run asks it once per distinct diagram; the calls
    # count_rect makes for the rectangle oracle are not the sweeps', and the
    # staircases are counted by that oracle, which has met them all already.
    count_paths, count_rect, asked = diagrams.count_paths, diagrams.count_rect, []
    in_rect = []

    def rect_spy(a, b):
        in_rect.append(True)
        try:
            return count_rect(a, b)
        finally:
            in_rect.pop()

    def spy(mu):
        if not in_rect:
            asked.append(mu)
        return count_paths(mu)

    monkeypatch.setattr(diagrams, "count_rect", rect_spy)
    monkeypatch.setattr(diagrams, "count_paths", spy)
    checks = verify.run_verify(8, 10, 4, 3)
    assert all(c.passed for c in checks)
    assert len(set(asked)) == 227
    assert len(asked) == 227


def _calls(monkeypatch, module, name):
    """Count the calls made to ``module.name`` from here on."""
    original, calls = getattr(module, name), []

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_diagram_sweeps_enumerate_each_height_once(monkeypatch):
    # Both sweeps read the run's one list a height, enumerated at the split
    # sweep's widest width: heights 1 to 6, not one call per rectangle (83).
    calls = _calls(monkeypatch, diagrams, "enumerate_paths")
    checks = verify.run_verify(8, 10, 4, 3)
    assert all(c.passed for c in checks)
    assert calls == [(a, 8) for a in range(1, 7)]


def test_each_heights_list_is_its_enumeration_filtered(monkeypatch):
    paths = verify.diagram_lists(12)
    for a in range(1, 9):
        for b in range(1, 13):
            assert paths(a, b) == [mu for _, mu in diagrams.enumerate_paths(a, b)], (a, b)
    # Empty bounds ask for no list, so nothing is enumerated, not even at width 0.
    calls = _calls(monkeypatch, diagrams, "enumerate_paths")
    for bounds in [(0, 0), (0, 8), (6, 0)]:
        count, oracle = cache(diagrams.count_paths), cache(diagrams.count_rect)
        paths = verify.diagram_lists(min(bounds[1], 8))
        assert verify.check_split_contract(*bounds, count, paths).cells == 0
        assert verify.check_decomposition(*bounds, count, oracle, paths).cells == 0
    assert calls == []


def test_lists_too_narrow_for_a_sweep_raise():
    # Lists narrower than a sweep's widest rectangle raise, so they cannot
    # make it pass over fewer cells.
    with pytest.raises(ValueError, match="width 4 exceeds the lists' width 3"):
        verify.diagram_lists(3)(1, 4)
    count, oracle = cache(diagrams.count_paths), cache(diagrams.count_rect)
    with pytest.raises(ValueError, match="width 4 exceeds"):
        verify.check_split_contract(6, 8, count, verify.diagram_lists(3))
    with pytest.raises(ValueError, match="width 7 exceeds"):
        verify.check_decomposition(5, 7, count, oracle, verify.diagram_lists(6))


def _plus_one(module, name):
    original = getattr(module, name)
    return lambda *args: original(*args) + 1


def _flipped(module, name):
    original = getattr(module, name)
    return lambda *args: 1 - original(*args)


# One fault per number check, with the cells, failure count and first and last
# counterexample of that check: (check, module, function, fault, sweep bounds).
PINNED_FAULTS = [
    ("coprime-formula-vs-oracle", formulas, "coprime_catalan", _plus_one, (8, 10, 4, 3),
     52, 52, "coprime(1,1) = 2, oracle 1", "coprime(8,9) = 1431, oracle 1430"),
    ("prime-dispatch-vs-oracle", formulas, "prime_rect", _plus_one, (8, 10, 4, 3),
     40, 40, "prime_rect(2,1) = 2, oracle 1", "prime_rect(7,10) = 1145, oracle 1144"),
    ("theorem1-vs-oracle", comparison, "theorem1_count", _plus_one, (8, 10, 4, 3),
     15, 15, "theorem1(1,1) = 3, oracle 2", "theorem1(4,3) = 1307743, oracle 1307742"),
    ("theorem2-vs-oracle", comparison, "theorem2_count", _plus_one, (8, 10, 4, 3),
     12, 12, "theorem2(1,1) = 4, oracle 3", "theorem2(4,3) = 543807, oracle 543806"),
    ("rule2-upper-telescopes", comparison, "rule2_terms", lambda m, n: lambda *args: [],
     (8, 10, 4, 3), 12, 9, "rule2(4,upper,1) terms sum to 0, width step 7",
     "rule2(8,upper,3) terms sum to 0, width step 269790"),
    ("q-boxes-vs-row-sum", christoffel, "q_boxes", _plus_one, (8, 10, 4, 3),
     80, 80, "q_boxes(1,1) = 1, row sum 0", "q_boxes(8,10) = 33, row sum 32"),
    ("delta-rows-vs-q-step", christoffel, "delta", _plus_one, (30, 60),
     1276, 1276, "delta rows for (2,3) sum to 1, q step 0",
     "delta rows for (30,60) sum to 58, q step 29"),
    ("delta-closed-forms", christoffel, "delta_closed_lower", _flipped, (8, 10, 4, 3),
     288, 144, "delta(2*1,2,1) = 1, lower form 0", "delta(2*4,66,7) = 1, lower form 0"),
]


@pytest.mark.parametrize(
    "check, module, name, fault, bounds, cells, failed, first, last",
    PINNED_FAULTS, ids=[case[0] for case in PINNED_FAULTS],
)
def test_number_check_counterexamples_are_pinned(
    monkeypatch, check, module, name, fault, bounds, cells, failed, first, last
):
    monkeypatch.setattr(module, name, fault(module, name))
    run = verify.run_verify if len(bounds) == 4 else verify.run_identity_checks
    (res,) = [c for c in run(*bounds) if c.name == check]
    assert (res.cells, len(res.failures)) == (cells, failed)
    assert (res.failures[0], res.failures[-1]) == (first, last)


# The library work the number checks do, through the module objects.
CHECKED_WORK = {
    christoffel: ["q_boxes", "delta"],
    diagrams: ["count_rect", "christoffel_diagram"],
    bizley: ["bizley_count"],
    formulas: ["coprime_catalan", "fuss_catalan", "prime_rect", "catalan"],
    comparison: ["theorem1_count", "theorem2_count", "rule2_terms"],
}


def test_each_check_is_one_outermost_call_that_does_its_own_work(monkeypatch):
    # A profiler that wraps every verify.check_* and names each span after the
    # result it returns sees one span per check, none inside another, and every
    # piece of a check's library work inside that check's span.
    returned, nested, called, outside, open_checks = [], [], Counter(), Counter(), []

    def span(fn):
        def wrapper(*args):
            if open_checks:
                nested.append((open_checks[-1], fn.__name__))
            open_checks.append(fn.__name__)
            try:
                returned.append(fn(*args))
            finally:
                open_checks.pop()
            return returned[-1]
        return wrapper

    def counted(label, fn):
        def wrapper(*args):
            called[label] += 1
            outside[label] += not open_checks
            return fn(*args)
        return wrapper

    for name in [n for n in vars(verify) if n.startswith("check_")]:
        monkeypatch.setattr(verify, name, span(getattr(verify, name)))
    for module, names in CHECKED_WORK.items():
        for name in names:
            label = f"{module.__name__}.{name}"
            monkeypatch.setattr(module, name, counted(label, getattr(module, name)))

    checks = verify.run_verify(8, 10, 4, 3)
    assert len(checks) == len(returned) == 15
    assert all(got is made for got, made in zip(checks, returned))
    assert nested == []
    assert sorted(called) == sorted(f"{m.__name__}.{n}" for m, ns in CHECKED_WORK.items() for n in ns)
    assert +outside == Counter()

    returned.clear()
    identities = verify.run_identity_checks(8, 10)
    assert len(identities) == len(returned) == 4
    assert all(got is made for got, made in zip(identities, returned))
    assert nested == [] and +outside == Counter()


def test_importing_the_cli_loads_no_dataclasses():
    # CheckResult is a plain class: a CLI run does not import dataclasses.
    src = os.path.dirname(os.path.dirname(verify.__file__))
    code = "import sys, rectcat.cli; sys.exit('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert proc.returncode == 0
