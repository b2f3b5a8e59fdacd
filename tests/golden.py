"""Golden CLI corpus: pinned exit codes and output digests of many CLI runs.

tests/golden_cli.tsv holds one invocation a line: its argv as a JSON list,
its exit code, and the first 16 hex digits of the SHA-256 of its stdout and
of its stderr.  Leading ``NAME=value`` items of an argv are environment
variables set for that run only, as a shell would read them.  Every run goes
in process through ``rectcat.cli.main``.  argparse usage errors and --help
text are left out, because their wording differs across Python versions.

    PYTHONPATH=src python tests/golden.py --write   # rewrite the corpus file
    PYTHONPATH=src python tests/golden.py           # name the first argv that differs
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from rectcat import cli

CORPUS = Path(__file__).with_name("golden_cli.tsv")


def _argvs():
    rects = [(a, b) for a in range(13) for b in range(19)]
    for a, b in rects:
        for method in cli.METHODS:
            for json_flag in ([], ["--json"]):
                yield ["count", str(a), str(b), "--method", method, *json_flag]
        yield ["christoffel", str(a), str(b)]
        yield ["expand", str(a), str(b)]
        yield ["expand", str(a), str(b), "--json"]
    for a in range(9):
        for b in range(13):
            yield ["decompose", str(a), str(b)]
            yield ["decompose", str(a), str(b), "--json"]
            yield ["decompose", str(a), str(b), "--format", "json"]
    for a in range(8):
        for b in range(11):
            yield ["enumerate", str(a), str(b)]
            yield ["enumerate", str(a), str(b), "--json"]
    for command in ("verify", "identities"):
        yield [command]
        yield [command, "--json"]
    yield ["verify", "--max-a", "12", "--max-b", "16"]
    yield ["verify", "--max-a", "3", "--max-b", "4", "--json"]
    yield ["verify", "--max-a", "12", "--max-b", "16", "--families", "4", "4", "--json"]
    values = {
        1: [[0], [1], [2], [5], [10], [25], [60], [-1]],
        2: [[6, 9], [4, 6], [2, 3], [3, 7], [5, 10], [1, 1], [0, 4], [-2, 3]],
        3: [[2, 6, 1], [3, 9, 2], [4, 13, 3], [1, 1, 0], [0, 0, 0], [2, 3, 1], [5, 20, 3], [3, 2, 1]],
    }
    for name, (arity, _) in cli.FORMULAS.items():
        for args in values[arity]:
            yield ["formula", name, *map(str, args)]
    # Explicit diagrams, caps and the error cases named in the change log.
    for rows in ["7,6,4,3,1", "", "1,0,0", "3,-1", "x", "1,x", "2", "4,3,1", "1,2", "9,9,9"]:
        yield ["decompose", "--diagram", rows]
        yield ["decompose", "--diagram", rows, "--json"]
    yield ["decompose", "--diagram", "4,3,1", "--format", "json"]
    yield ["decompose", "4", "6", "--diagram", "2"]
    yield ["decompose", "4"]
    yield ["decompose"]
    yield ["enumerate", "4", "6", "--limit", "22"]
    yield ["enumerate", "4", "6", "--limit", "23"]
    yield ["enumerate", "4", "6", "--limit", "0", "--json"]
    yield ["RECTCAT_MAX_ENUM=5", "enumerate", "4", "6"]
    yield ["RECTCAT_MAX_ENUM=23", "enumerate", "4", "6", "--json"]
    yield ["RECTCAT_MAX_ENUM=x", "enumerate", "2", "2"]
    yield ["RECTCAT_MAX_ENUM=5", "enumerate", "4", "6", "--limit", "100"]
    yield ["RECTCAT_MAX_ENUM=x", "enumerate", "0", "3"]
    yield ["RECTCAT_MAX_ENUM=1", "verify"]
    yield ["RECTCAT_MAX_ENUM=1", "verify", "--json"]
    yield ["expand", "6", "10"]
    yield ["expand", "8", "14", "--json"]
    yield ["count", "30", "45"]
    yield ["count", "296", "294", "--method", "theorem"]
    yield ["count", "300", "302", "--method", "theorem", "--json"]
    yield ["count", "6", "9", "--check-bound", "0", "--json"]
    yield ["formula", "coprime", "10001", "15002"]
    yield ["formula", "prime", "4", "6"]
    yield ["count", "2", "100000000000000000000000", "--method", "oracle"]
    yield ["enumerate", "1", "100000000000000000000"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout digest, stderr digest) of one in-process run."""
    env = {}
    while argv and "=" in argv[0] and argv[0].split("=", 1)[0].isupper():
        name, value = argv[0].split("=", 1)
        env[name] = value
        argv = argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, _digest(out.getvalue()), _digest(err.getvalue())


def line(argv: list[str]) -> str:
    code, out, err = run(argv)
    return f"{json.dumps(argv)}\t{code}\t{out}\t{err}\n"


def first_difference(path: Path = CORPUS) -> str | None:
    """The first corpus line whose run differs, with what it gives now; else None."""
    with path.open() as fh:
        for want in fh:
            argv, pinned = want.rstrip("\n").split("\t", 1)
            got = line(json.loads(argv)).rstrip("\n").split("\t", 1)[1]
            if got != pinned:
                return f"{argv}: pinned {pinned!r}, got {got!r}"
    return None


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        with CORPUS.open("w") as fh:
            fh.writelines(line(a) for a in _argvs())
        return 0
    if argv:
        print("usage: golden.py [--write]", file=sys.stderr)
        return 2
    diff = first_difference()
    print(diff or "golden corpus matches")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
