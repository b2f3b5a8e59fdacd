"""Self-test of the benchmark: its answer checks, streams, trace and metric list.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs one round in a worker.  With a counting route made wrong
on purpose, the answer checks must fail some requests; without it, none.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _one_round(tmp_path, workload, **cfg):
    _, report = run.spawn({
        "workload": workload, "seed": 7, "rounds": 1,
        "cache_path": str(tmp_path / "cache.csv"), **cfg,
    })
    return report["records"]


@pytest.mark.parametrize("workload, fault", [
    ("count", "formulas.coprime_catalan"),
    ("count", "bizley.phi"),
    ("verify", "formulas.coprime_catalan"),
    ("structures", "formulas.catalan"),
])
def test_a_wrong_route_raises_the_failed_ratio(tmp_path, workload, fault):
    records = _one_round(tmp_path, workload, fault=fault)
    failed = [r for r in records if r["problem"] is not None]
    assert len(failed) / len(records) > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_clean_round_has_no_failures(tmp_path, workload):
    records = _one_round(tmp_path, workload)
    assert [r["problem"] for r in records if r["problem"]] == []
    if workload == "verify":  # the pinned default totals were checked
        assert records[0]["argv"] == ["verify"]


def test_trace_counts_match_the_requests(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    records = _one_round(tmp_path, "verify", trace=True, spans_path=str(spans_path))
    spans = tracing.read_spans(spans_path)
    assert run.trace_problems(spans, records) == []
    metrics = run.per_layer(spans, records, 0.0)
    assert list(metrics) == [name for name, _, _ in run.PER_LAYER]
    assert metrics["cli.main.calls"] == len(records)
    assert metrics["verify.cells"] > 3418


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_seeded_and_never_repeat(workload):
    runs = {seed: list(workloads.stream(workload, seed, "c.csv")) for seed in range(1, 6)}
    assert runs[1] == list(workloads.stream(workload, 1, "c.csv"))
    assert runs[1] != runs[2]
    for requests in runs.values():  # every full stream draws distinct inputs
        assert len({r.key for r in requests}) == len(requests)
        assert requests[-1].round == workloads.MAX_ROUNDS[workload] - 1


def test_auto_route_is_the_route_the_cli_resolves(capsys):
    sys.path.insert(0, str(run.ROOT / "src"))
    from rectcat import cli

    for a in range(1, 25):
        for b in range(1, 25):
            assert cli.main(["count", str(a), str(b), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["results"]["resolved_method"] == workloads.auto_route(a, b), (a, b)


def test_tail_leaves_ten_samples_above():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
