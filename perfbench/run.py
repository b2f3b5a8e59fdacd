"""Benchmark of the rectcat command line, driven in-process.

    python3 perfbench/run.py --workload count|verify|structures \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout (the package is imported from its
``src``; nothing needs installing).  Each run spawns fresh worker processes,
one at a time.  A worker imports ``rectcat.cli`` and calls ``main(argv)`` for
each request of the seeded workload in closed loop, one client, no think
time, and checks every answer outside the timed region.

``--trace 0`` measures for about S seconds of request time, whole rounds of
the workload's mix, and reports the end-to-end metrics.  Set-up (interpreter
start plus ``import rectcat.cli``) is timed in several extra spawns and
reported on its own as ``setup_s``.

``--trace 1`` replays a fixed number of rounds three times, the middle one
with span recording wrapped around the package's public functions, derives
the per-layer metrics from the spans file, and runs the workload's
pathological probes, each in its own process under a wall-clock and an
address-space limit.

Every run writes its full record to ``perfbench/results/``; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"

SETUP_SPAWNS = 15
WORKER_TIMEOUT_S = 150
PROBE_LIMIT_S = 12
PROBE_MEMORY_BYTES = 1 << 30

# Inputs too slow for any workload today, timed on their own.  They belong to
# the workload whose layer they stress: the partition sum under `auto`, and
# the decomposition tree and its normal form.
PROBES = {
    "count": (("count", "120", "180"), ("count", "300", "450")),
    "structures": (("decompose", "18", "27"), ("count", "60", "90", "--method", "decompose")),
}

# The 15 checks of a default `verify`, by the names it prints.
VERIFY_CHECKS = (
    "coprime-formula-vs-oracle", "fuss-formula-vs-oracle", "prime-dispatch-vs-oracle",
    "bizley-vs-oracle", "catalan-on-squares", "theorem1-vs-oracle", "theorem2-vs-oracle",
    "rule2-upper-telescopes", "rule2-lower-telescopes", "split-contract-exhaustive",
    "decomposition-vs-oracle", "q-boxes-vs-row-sum", "delta-rows-vs-q-step",
    "delta-closed-forms", "special-row-guard",
)

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# Per-layer metrics: name, unit, which direction is better.
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    ("cli.crosscheck_ratio", "ratio", "higher"),
    *[(f"diagrams.{fn}.{f}", u, "lower")
      for fn in ("count_paths", "christoffel_diagram", "enumerate_paths", "word_to_diagram")
      for f, u in (("calls", "count"), ("self_s", "s"))],
    ("diagrams.count_paths.cells", "count", "lower"),
    ("diagrams.enumerate_paths.words", "count", "lower"),
    ("formulas.calls", "count", "lower"),
    ("formulas.self_s", "s", "lower"),
    *[(f"bizley.{fn}.{f}", u, "lower")
      for fn in ("bizley_count", "phi", "partitions")
      for f, u in (("calls", "count"), ("self_s", "s"))],
    ("bizley.partitions.returned", "count", "lower"),
    ("comparison.theorem_count.calls", "count", "lower"),
    ("comparison.theorem_count.self_s", "s", "lower"),
    ("comparison.through_box_split.calls", "count", "lower"),
    ("comparison.through_box_split.self_s", "s", "lower"),
    ("comparison.rule2_terms.calls", "count", "lower"),
    ("christoffel.calls", "count", "lower"),
    ("christoffel.self_s", "s", "lower"),
    ("decomposition.decompose.calls", "count", "lower"),
    ("decomposition.decompose.self_s", "s", "lower"),
    ("decomposition.h_value.self_s", "s", "lower"),
    ("decomposition.expr_stats.self_s", "s", "lower"),
    ("decomposition.render.calls", "count", "lower"),
    ("decomposition.render.self_s", "s", "lower"),
    ("decomposition.render.bytes", "B", "lower"),
    ("decomposition.summands", "count", "lower"),
    ("decomposition.render_per_command", "ratio", "lower"),
    *[(f"verify.{name}.self_s", "s", "lower") for name in VERIFY_CHECKS],
    ("verify.cells", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def spawn(cfg: dict) -> tuple[float, dict]:
    """Run one worker to completion; return its spawn time and its report."""
    cfg = {"root": str(ROOT), "seconds": 0, "cache_path": "", **cfg}
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(cfg)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds() -> list[float]:
    out = []
    for _ in range(SETUP_SPAWNS):
        started, report = spawn({"ready_only": True})
        out.append(report["ready"] - started)
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(0, n - 11)
    return ordered[i], 100.0 * (i + 1) / n


def end_to_end(records, busy_s, peak_rss_mb, setup) -> tuple[dict, dict]:
    ok = sum(1 for r in records if r["problem"] is None)
    latencies = [r["latency_s"] for r in records]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "requests_per_s": ok / busy_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "success_ratio": ok / len(records),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    detail = {
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "failed_ratio": 1 - ok / len(records),
        "setup_samples_s": setup,
    }
    return metrics, detail


def per_layer(spans, records, overhead_s) -> dict:
    """The per-layer metrics, all derived from the spans of the traced run."""
    totals = tracing.span_totals(spans)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def add(prefix, names):
        return {
            f"{prefix}.calls": sum(get(n, "calls") for n in names),
            f"{prefix}.self_s": sum(get(n, "self_s") for n in names),
        }

    m = add("cli.main", ["cli.main"])
    m["cli.stdout_bytes"] = get("cli.main", "size")
    auto = {r["id"] for r in records if r["command"] == "count" and "--method" not in r["argv"]}
    oracle_ran = {s["req"] for s in spans if s["name"] == "diagrams.count_paths"}
    m["cli.crosscheck_ratio"] = len(auto & oracle_ran) / len(auto) if auto else 0.0
    for fn in ("count_paths", "christoffel_diagram", "enumerate_paths", "word_to_diagram"):
        m.update(add(f"diagrams.{fn}", [f"diagrams.{fn}"]))
    m["diagrams.count_paths.cells"] = get("diagrams.count_paths", "size")
    m["diagrams.enumerate_paths.words"] = get("diagrams.enumerate_paths", "size")
    m.update(add("formulas", [f"formulas.{f}" for f in tracing.TRACED["formulas"]]))
    for fn in ("bizley_count", "phi", "partitions"):
        m.update(add(f"bizley.{fn}", [f"bizley.{fn}"]))
    m["bizley.partitions.returned"] = get("bizley.partitions", "size")
    m.update(add("comparison.theorem_count",
                 ["comparison.theorem1_count", "comparison.theorem2_count"]))
    m.update(add("comparison.through_box_split", ["comparison.through_box_split"]))
    m["comparison.rule2_terms.calls"] = get("comparison.rule2_terms", "calls")
    m.update(add("christoffel", [f"christoffel.{f}" for f in tracing.TRACED["christoffel"]]))
    m.update(add("decomposition.decompose", ["decomposition.decompose"]))
    m["decomposition.h_value.self_s"] = get("decomposition.h_value", "self_s")
    m["decomposition.expr_stats.self_s"] = get("decomposition.expr_stats", "self_s")
    m.update(add("decomposition.render", ["decomposition.render"]))
    m["decomposition.render.bytes"] = get("decomposition.render", "size")
    m["decomposition.summands"] = get("decomposition.expr_stats", "size")
    commands = sum(1 for r in records if r["command"] == "decompose")
    m["decomposition.render_per_command"] = (
        get("decomposition.render", "calls") / commands if commands else 0.0)
    for name in VERIFY_CHECKS:
        m[f"verify.{name}.self_s"] = get(f"verify.{name}", "self_s")
    m["verify.cells"] = sum(get(f"verify.{name}", "size") for name in VERIFY_CHECKS)
    m["trace.overhead_s"] = overhead_s
    return m


def trace_problems(spans, records) -> list[str]:
    """Compare the wrapped call counts with calls counted from the requests."""
    problems = []
    roots = [s for s in spans if s["parent"] < 0]
    if sorted(s["req"] for s in roots) != [r["id"] for r in records]:
        problems.append(f"{len(roots)} outermost spans for {len(records)} requests")
    if any(s["name"] != "cli.main" for s in roots):
        problems.append("an outermost span is not cli.main")
    mains = {s["id"] for s in roots}
    commands = Counter(r["command"] for r in records)
    for command, name in (("decompose", "decomposition.decompose"),
                          ("enumerate", "diagrams.enumerate_paths")):
        seen = sum(1 for s in spans if s["name"] == name and s["parent"] in mains)
        if seen != commands[command]:
            problems.append(f"{seen} {name} calls from cli.main, {commands[command]} requests")
    checks = sum(1 for s in spans if s["name"].removeprefix("verify.") in VERIFY_CHECKS)
    want = 15 * commands["verify"] + 4 * commands["identities"]
    if checks != want:
        problems.append(f"{checks} verify check spans, {want} expected from the requests")
    return problems


def probe(argv) -> dict:
    """Run one CLI call in its own process under the wall-clock limit."""
    code = ("import sys; sys.path.insert(0, 'src'); from rectcat.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES)))
    timed_out = False
    while True:  # wait4 rather than Popen.wait: it reports the child's peak RSS
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() - started > PROBE_LIMIT_S:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": list(argv),
        "seconds": "timeout" if timed_out else time.monotonic() - started,
        "exit_code": None if timed_out else proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "limit_s": PROBE_LIMIT_S,
        "memory_limit_bytes": PROBE_MEMORY_BYTES,
    }


def mix(records) -> dict:
    keys = Counter(r["key"] for r in records)
    return {
        "by_command": dict(Counter(r["command"] for r in records)),
        "by_route": dict(Counter(f"{r['command']}:{r['route']}" for r in records)),
        "resolved_routes_reported": dict(
            Counter(r["resolved"] for r in records if r["resolved"])),
        "rounds": len({r["round"] for r in records}),
        "repeat_share": sum(n - 1 for n in keys.values()) / len(records),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rectcat" / "cli.py").is_file():
        print(f"no rectcat sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = {"workload": args.workload, "seed": args.seed,
            "cache_path": str(RESULTS / f"{stem}.cache.csv")}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "predictions": workloads.PREDICTIONS,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "client": "closed loop, one client, no think time, in-process cli.main",
    }
    wall = time.monotonic()
    try:
        spawn({"ready_only": True})  # unmeasured: leaves the bytecode caches warm
        if args.trace:
            rounds = workloads.TRACE_ROUNDS[args.workload]
            spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
            # Untraced runs on both sides of the traced one cancel a slow drift
            # in machine speed out of the overhead.
            _, before = spawn({**base, "rounds": rounds})
            _, traced = spawn({**base, "rounds": rounds, "trace": True,
                               "spans_path": str(spans_path)})
            _, after = spawn({**base, "rounds": rounds})
            untraced = [before["busy_s"], after["busy_s"]]
            records = traced["records"]
            spans = tracing.read_spans(spans_path)
            metrics = per_layer(spans, records, traced["busy_s"] - statistics.mean(untraced))
            problems = trace_problems(spans, records)
            record.update(
                spans_file=str(spans_path.relative_to(ROOT)), spans=len(spans),
                traced_busy_s=traced["busy_s"], untraced_busy_s=untraced,
                trace_problems=problems,
                probes=[probe(p) for p in PROBES.get(args.workload, ())])
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            setup = setup_seconds()
            started, report = spawn({**base, "seconds": args.seconds})
            setup.append(report["ready"] - started)
            records = report["records"]
            metrics, detail = end_to_end(
                records, report["busy_s"], report["peak_rss_mb"], setup)
            problems = []
            record.update(detail, busy_s=report["busy_s"])
            units = END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    failed = [r for r in records if r["problem"] is not None]
    record.update(
        wall_s=time.monotonic() - wall,
        attempted=len(records),
        failed=len(failed),
        failures=[{"argv": r["argv"], "problem": r["problem"]} for r in failed[:20]],
        mix=mix(records),
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        requests=[{k: r[k] for k in ("argv", "route", "round", "latency_s", "problem")}
                  for r in records],
    )
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(records)} requests, "
          f"{len(failed)} failed, {record['mix']['rounds']} rounds, "
          f"repeat share {record['mix']['repeat_share']:.3f}")
    for f in record["failures"][:5] + [{"argv": "trace", "problem": p} for p in problems]:
        print(f"  FAIL {f['argv']}: {f['problem']}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for p in record.get("probes", ()):
        print(f"  probe {' '.join(p['argv'])}: {p['seconds']} s, {p['peak_rss_mb']:.0f} MB")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
