"""One benchmark worker: a fresh interpreter driving ``rectcat.cli.main``.

Run by ``run.py`` with one JSON argument (see ``run.py`` for its keys).  The
worker imports the CLI from the checkout's ``src``, stamps the moment it is
ready to take requests, then issues the workload's requests one after the
other in closed loop, capturing stdout and stderr.  Only the ``main`` call is
timed; each answer is checked after the timer stops.  The worker prints one
JSON object with its records and exits.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import sys
import time

import tracing
import workloads

DEFAULT_VERIFY_RESULT = "RESULT: PASS (15 checks, 3418 cells)"


def _fault(dotted: str) -> None:
    """Make ``module.function`` answer one too many, everywhere it is looked up."""
    module, name = dotted.split(".")
    original = getattr(sys.modules[f"rectcat.{module}"], name)

    def off_by_one(*args, **kwargs):
        return original(*args, **kwargs) + 1

    tracing.replace_everywhere(original, off_by_one)


class Checker:
    """Checks each answer against the oracle; returns a reason or None."""

    def __init__(self, diagrams, cache_path: str):
        self.diagrams = diagrams
        self.cache_path = cache_path
        self.cache_offset = 0
        self.resolved = None  # the route a count request reported, if it did

    def __call__(self, req, code, out: str):
        if code != 0:
            return f"exit code {code}"
        check = getattr(self, f"_{req.command}", self._report)
        return check(req, out)

    def _count(self, req, out):
        a, b = int(req.argv[1]), int(req.argv[2])
        if "--json" in req.argv:
            report = json.loads(out)
            if report["failures"]:
                return f"reported failures {report['failures']}"
            got = int(report["results"]["count"])
            self.resolved = report["results"]["resolved_method"]
        else:
            lines = out.splitlines()
            if len(lines) != 1 or not lines[0].isdigit():
                return f"unexpected output {out[:80]!r}"
            got = int(lines[0])
        want = self.diagrams.count_rect(a, b)
        if got != want:
            return f"count {got}, oracle {want}"
        if "--cache" in req.argv:
            return self._cache_row(a, b, got)
        return None

    def _cache_row(self, a, b, got):
        with open(self.cache_path, newline="") as fh:
            fh.seek(self.cache_offset)
            rows = list(csv.reader(fh.read().splitlines()))
            self.cache_offset = fh.tell()
        if rows and rows[0] == ["a", "b", "method", "count", "micros"]:
            rows = rows[1:]
        if len(rows) != 1:
            return f"--cache appended {len(rows)} rows"
        row = rows[0]
        self.resolved = row[2]
        if row[:2] != [str(a), str(b)] or row[3] != str(got) or not row[4].isdigit():
            return f"--cache row {row} does not match {a}x{b} = {got}"
        return None

    def _decompose(self, req, out):
        if "--diagram" in req.argv:
            text = req.argv[req.argv.index("--diagram") + 1]
            mu = tuple(int(x) for x in text.split(",") if x)
        else:
            mu = workloads.christoffel_rows(int(req.argv[1]), int(req.argv[2]))
        if "--json" in req.argv:
            res = json.loads(out)["results"]
            value, oracle, summands, expr = res["value"], res["oracle"], res["summands"], res["text"]
        else:
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            value, oracle, summands, expr = (
                fields["value"], fields["oracle"], fields["summands"], fields["expr"])
        want = self.diagrams.count_paths(mu)
        if not int(value) == int(oracle) == want:
            return f"value {value}, oracle {oracle}, count_paths {want}"
        if expr.count(" + ") + 1 != int(summands):
            return f"expression has {expr.count(' + ') + 1} terms, summands {summands}"
        return None

    def _enumerate(self, req, out):
        a, b = int(req.argv[1]), int(req.argv[2])
        if "--json" in req.argv:
            res = json.loads(out)["results"]
            words = [path["word"] for path in res["paths"]]
            if res["count"] != len(words):
                return f"count {res['count']} for {len(words)} paths"
        else:
            words = [line.split(" ", 1)[0] for line in out.splitlines()]
        want = self.diagrams.count_rect(a, b)
        if len(words) != want:
            return f"{len(words)} words, count_rect {want}"
        if any(w1 >= w2 for w1, w2 in zip(words, words[1:])):
            return "words are not strictly increasing"
        if not all(self.diagrams.is_valid_word(a, b, w) for w in words):
            return "a word leaves the staircase"
        return None

    def _report(self, req, out):
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        if req.route == "verify:default":
            return None if last == DEFAULT_VERIFY_RESULT else f"default verify ended {last!r}"
        if not last.startswith("RESULT: PASS"):
            return f"ended {last!r}"
        checks = {"verify": "(15 checks,", "identities": "(4 checks,"}.get(req.command)
        if checks and checks not in last:
            return f"ended {last!r}"
        return None


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import rectcat.cli as cli  # set-up ends once the CLI is imported

    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported rectcat from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if cfg.get("ready_only"):
        print(json.dumps({"ready": ready}))
        return 0

    from rectcat import diagrams

    if cfg.get("fault"):
        _fault(cfg["fault"])
    tracer = None
    if cfg.get("trace"):
        tracer = tracing.Tracer()
        tracer.install()
    main_fn = cli.main
    if os.path.exists(cfg["cache_path"]):
        os.remove(cfg["cache_path"])
    check = Checker(diagrams, cfg["cache_path"])
    rounds, seconds = cfg.get("rounds"), cfg["seconds"]

    records = []
    busy = 0.0
    clock = time.perf_counter
    for rid, req in enumerate(workloads.stream(cfg["workload"], cfg["seed"], cfg["cache_path"])):
        if rounds is not None and req.round >= rounds:
            break
        if rounds is None and records and busy >= seconds and req.round > records[-1]["round"]:
            break
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.open_request(rid)
        code, problem = None, None
        check.resolved = None
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main_fn(list(req.argv))
        except SystemExit as exc:  # argparse rejects its input this way
            problem = f"SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001 - any crash is a failed request
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        busy += elapsed
        text = out.getvalue()
        stdout_bytes = len(text.encode())
        if tracer:
            root = tracer.close_request()
            if root >= 0:
                tracer.size[root] = stdout_bytes
        if problem is None:
            try:
                problem = check(req, code, text)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"unparseable output: {type(exc).__name__}: {exc}"
        if problem and err.getvalue():
            problem += f" (stderr: {err.getvalue().strip()[:200]})"
        records.append({
            "id": rid,
            "round": req.round,
            "command": req.command,
            "route": req.route,
            "argv": list(req.argv),
            "key": repr(req.key),
            "latency_s": elapsed,
            "stdout_bytes": stdout_bytes,
            "problem": problem,
            "resolved": check.resolved,
        })

    result = {
        "ready": ready,
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    if tracer:
        result["spans"] = tracer.write(cfg["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
