"""The verify sweeps do each distinct piece of work once per call, and say the same."""

from functools import cache

import pytest

from oracles import decomposition_by_visits, split_contract_by_visits
from rectcat import comparison, decomposition, diagrams, verify
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
    # One diagram oracle for both sweeps, made after the fault, as run_verify makes it.
    count, failures = cache(diagrams.count_paths), []
    for memo, visits in (
        (verify.check_split_contract, split_contract_by_visits),
        (verify.check_decomposition, decomposition_by_visits),
    ):
        got, want = memo(*bounds, count), visits(*bounds)
        assert (got.name, got.cells) == (want.name, want.cells)
        assert got.failures == want.failures
        failures += got.failures
    # Each fault shows in one sweep or both, except on the 1x1 grid's empty diagram.
    assert bool(failures) == (fault != "clean" and bounds != (1, 1))


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
    # count_rect makes for the rectangle oracle are not the sweeps'.
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
    assert len(set(asked)) == 240
    assert len(asked) == 240
