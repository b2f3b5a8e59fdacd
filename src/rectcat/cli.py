"""Command-line interface: counting, enumeration, decomposition, verification.

Every command is deterministic (identical inputs give byte-identical
stdout).  Exit codes: 0 success, 2 usage or domain error, a size past its
cap in diagrams.CAPS included, 3 verification failure or internal
cross-check mismatch.  --json swaps the text output for a single versioned
JSON object; counts travel as decimal strings there, so no reader has to
round-trip big integers through floats.  enumerate's count, bounded by its
cap, is the one JSON integer among them.

A handler returns (text, JSON results, failures).  decompose and enumerate
build only the form that --json selects and leave the other None.  The text
may be any iterable of pieces of text, and main writes each piece as it
comes, so no joined copy is made: decompose's JSON tree goes out piece by
piece, and enumerate's pieces hold the paths of one odometer setting each,
so main does no work per line.  A result value may be JSON text already
written, in pieces that may come from a generator, which main copies into
the report as it stands.  A handler raises every error before it returns,
so a refusal writes nothing to stdout.

COMMANDS states each command's arguments once.  An argv of a command's
name, its positionals, then exact option names each with its values is
read from that table, and builds no argparse parser; every other argv, help
included, goes to argparse unchanged, with argparse's words and exit codes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable

from . import christoffel, comparison, decomposition, diagrams, formulas, verify
from .formulas import digits

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
DEFAULT_CHECK_BOUND = 400
# json.dumps writes this string as "\u0000", which no other report value holds.
_SPLICE = "\0"


class _Verbatim:
    """A report value given as JSON text already written, in pieces."""

    def __init__(self, pieces: Iterable[str]):
        self.pieces = pieces


METHODS = [*verify.ROUTES, "auto"]
AUTO = ("coprime", "fuss", "theorem", "bizley")  # auto takes the first that applies


def _append_cache(path: str, a: int, b: int, method: str, count: str, micros: int) -> None:
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        # Append mode starts at the end; a pipe has no position and gets the header too.
        if not fh.seekable() or fh.tell() == 0:
            writer.writerow(["a", "b", "method", "count", "micros"])
        writer.writerow([a, b, method, count, micros])


def _cmd_count(args):
    a, b = args.a, args.b
    start = time.perf_counter()
    resolved = verify.first_route(a, b, AUTO if args.method == "auto" else [args.method])
    value = verify.ROUTES[resolved].count(a, b)
    micros = int((time.perf_counter() - start) * 1e6)
    failures = []
    oracle = None
    if args.method == "auto" and a * b <= args.check_bound:
        oracle = diagrams.count_rect(a, b)
        if oracle != value:
            failures.append(
                f"method {resolved} gives {digits(value)} for {a}x{b}, "
                f"oracle {digits(oracle)}"
            )
    count = digits(value)
    if args.cache:
        _append_cache(args.cache, a, b, resolved, count, micros)
    lines = [f"{count}\n"] + [f"FAIL: {f}\n" for f in failures]
    results = {
        "a": a,
        "b": b,
        "method": args.method,
        "resolved_method": resolved,
        "count": count,
        "oracle": None if oracle is None else digits(oracle),
    }
    return lines, results, failures


def _cmd_christoffel(args):
    a, b = args.a, args.b
    diagrams.check_rect(a, b)
    diagrams.admit("rows", a - 1)
    mu = diagrams.christoffel_diagram(a, b)
    q = digits(christoffel.q_boxes(a, b))
    profile = [christoffel.delta(a, b, l) for l in range(1, a)]
    lines = [
        f"rows: {diagrams.format_diagram(mu)}\n",
        f"q: {q}\n",
        f"delta: {','.join(str(d) for d in profile)}\n",
    ]
    # json.dumps writes ints with repr(), which refuses q past 4300 digits on
    # Python 3.11+: q goes in as its digits, and so stays a JSON integer.
    results = {"a": a, "b": b, "rows": list(mu), "q": _Verbatim([q]), "delta": profile}
    return lines, results, []


def _cmd_decompose(args):
    if args.diagram is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("give either a and b or --diagram, not both")
        mu = diagrams.parse_diagram(args.diagram)
    else:
        if args.a is None or args.b is None:
            raise ValueError("give both rectangle sides, or --diagram")
        mu = diagrams.christoffel_diagram(args.a, args.b)
    expr = decomposition.decompose(mu)
    value = decomposition.h_value(expr)
    oracle = diagrams.count_paths(mu)
    stats = {"value": digits(value), "oracle": digits(oracle)}
    stats.update(zip(("summands", "leaves", "depth"), decomposition.expr_stats(expr)))
    failures = []
    if value != oracle:
        failures.append(f"decomposition values to {stats['value']}, oracle {stats['oracle']}")
    if args.json:
        results = {
            "diagram": list(mu),
            "expr": _Verbatim(decomposition.json_pieces(expr, sort_keys=True)),
            # A term holds no character JSON escapes, so the text is its own JSON string.
            "text": _Verbatim(['"', decomposition.render(expr), '"']),
            **stats,
        }
        return None, results, failures
    if args.format == "json":
        form = decomposition.json_pieces(expr)
    else:
        form = [decomposition.render(expr)]
    lines = [f"{key}: {v}\n" for key, v in stats.items()] + [f"FAIL: {f}\n" for f in failures]
    return itertools.chain(["expr: "], form, ["\n"], lines), None, failures


def _cmd_enumerate(args):
    # --limit, else RECTCAT_MAX_ENUM, else the default; a bad rectangle is reported first.
    diagrams.check_rect(args.a, args.b)
    cap = args.limit
    if cap is None:
        env = os.environ.get("RECTCAT_MAX_ENUM", str(diagrams.CAPS["paths"]))
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"RECTCAT_MAX_ENUM must be an integer, got {env!r}") from None
    # Every refusal comes from this call, before main writes anything.
    count, text = diagrams.enumerate_paths(args.a, args.b, cap, "json" if args.json else "text")
    if not args.json:
        return text, None, []
    return None, {"a": args.a, "b": args.b, "count": count, "paths": _Verbatim(text)}, []


def _report_checks(checks):
    width = max(len(c.name) for c in checks)
    lines = [
        f"{c.name:<{width}}  cells={c.cells:<7d} {'ok' if c.passed else 'FAIL'}\n"
        for c in checks
    ]
    failures = [f for c in checks for f in c.failures]
    if failures:
        lines.append("counterexamples:\n")
        lines.extend(f"  {f}\n" for f in failures[:10])
        if len(failures) > 10:
            lines.append(f"  ... and {len(failures) - 10} more\n")
    total = sum(c.cells for c in checks)
    verdict = "PASS" if not failures else "FAIL"
    lines.append(f"RESULT: {verdict} ({len(checks)} checks, {total} cells)\n")
    results = {
        "checks": [
            {"name": c.name, "cells": c.cells, "failures": c.failures[:10]}
            for c in checks
        ],
        "total_cells": total,
    }
    return lines, results, failures


def _sweep_bounds(args) -> None:
    """Refuse a negative sweep bound: its sweeps would cover nothing and pass."""
    bounds = [("--max-a", args.max_a), ("--max-b", args.max_b)]
    bounds += [("--families", n) for n in getattr(args, "families", None) or ()]
    for flag, n in bounds:
        if n < 0:
            raise ValueError(f"{flag} must not be negative, got {n}")


def _cmd_verify(args):
    _sweep_bounds(args)
    if args.families:
        fam_k, fam_n = args.families
    else:
        fam_k, fam_n = min(4, max(1, args.max_a // 2)), 3
    return _report_checks(verify.run_verify(args.max_a, args.max_b, fam_k, fam_n))


def _cmd_identities(args):
    _sweep_bounds(args)
    return _report_checks(verify.run_identity_checks(args.max_a, args.max_b))


def _cmd_expand(args):
    a, b = args.a, args.b
    verify.first_route(a, b, ["theorem"])  # refuses bad sides, then a shape outside both families
    family, _, n = comparison.theorem_fit(a, b)
    # Every term is coprime, and so is one side of the width step; the other,
    # like (a, b), has gcd 2.  Terms and step share rectangles: count each once.
    count = functools.cache(
        lambda a, b: verify.ROUTES[verify.first_route(a, b, ("coprime", "bizley"))].count(a, b)
    )
    terms, total, step, diff = verify.rule2_bridge(a, family, n, count)
    lines = [f"family: {family} (a={a}, b={b}, n={n})\n"]
    items = []
    for left, right, lc, rc in terms:
        lt, rt = digits(lc), digits(rc)
        lines.append(
            f"{left[0]}x{left[1]} * {right[0]}x{right[1]}: {lt} * {rt} = {digits(lc * rc)}\n"
        )
        items.append(
            {
                "left": list(left),
                "right": list(right),
                "left_count": lt,
                "right_count": rt,
            }
        )
    total_text, diff_text = digits(total), digits(diff)
    failures = []
    if total != diff:
        failures.append(f"term sum {total_text} differs from width step {diff_text}")
    lines.append(f"sum: {total_text}\n")
    lines.append(f"width step {step} = {diff_text}\n")
    lines.append(f"RESULT: {'PASS' if not failures else 'FAIL'}\n")
    results = {
        "a": a,
        "b": b,
        "family": family,
        "n": n,
        "terms": items,
        "sum": total_text,
        "difference": diff_text,
    }
    return lines, results, failures


FORMULAS = {
    "binomial": (2, formulas.binomial),
    "catalan": (1, formulas.catalan),
    "fuss": (2, formulas.fuss_catalan),
    "coprime": (2, formulas.coprime_catalan),
    "prime": (2, formulas.prime_rect),
    "ballot": (3, formulas.ballot_value),
    "ballot-brute": (3, formulas.ballot_brute),
    "avoidance": (2, formulas.avoidance_value),
}


def _cmd_formula(args):
    arity, fn = FORMULAS[args.name]
    if len(args.values) != arity:
        raise ValueError(f"{args.name} takes {arity} integers, got {len(args.values)}")
    value = digits(fn(*args.values))
    results = {"name": args.name, "values": args.values, "result": value}
    return [f"{value}\n"], results, []


def _arg(*flags, **kwargs):
    return flags, kwargs


_JSON = _arg("--json", action="store_true", help="emit one JSON object instead of text")
_RECT = [_JSON, _arg("a", type=int), _arg("b", type=int)]

# The command line's grammar: each command's handler, its help, and its
# arguments as add_argument takes them, in the order --help lists them.
COMMANDS = {
    "count": (_cmd_count, "count the paths of a rectangle", [
        *_RECT,
        _arg("--method", choices=METHODS, default="auto"),
        _arg(
            "--check-bound",
            type=int,
            default=DEFAULT_CHECK_BOUND,
            help="cross-check auto against the oracle while a*b is at most this",
        ),
        _arg("--cache", metavar="FILE", help="append a,b,method,count,micros to this CSV"),
    ]),
    "christoffel": (
        _cmd_christoffel, "maximal staircase rows, box count, and growth profile", _RECT
    ),
    "decompose": (_cmd_decompose, "isosceles expression of a staircase", [
        _JSON,
        _arg("a", type=int, nargs="?"),
        _arg("b", type=int, nargs="?"),
        _arg("--diagram", help='explicit rows, e.g. "4,3,1"'),
        _arg("--format", choices=["text", "json"], default="text"),
    ]),
    "enumerate": (_cmd_enumerate, "list every path word with its diagram", [
        *_RECT,
        _arg(
            "--limit",
            type=int,
            help="refuse when the count exceeds this (default 10**6, or RECTCAT_MAX_ENUM)",
        ),
    ]),
    "verify": (_cmd_verify, "run every cross-method sweep", [
        _JSON,
        _arg("--max-a", type=int, default=8),
        _arg("--max-b", type=int, default=10),
        _arg(
            "--families",
            type=int,
            nargs=2,
            metavar=("K", "N"),
            help="theorem family ranges k <= K, n <= N (default: derived from --max-a)",
        ),
    ]),
    "identities": (_cmd_identities, "box-count and row-profile identity sweeps", [
        _JSON, _arg("--max-a", type=int, default=16), _arg("--max-b", type=int, default=40)
    ]),
    "expand": (_cmd_expand, "telescoping term list of a family rectangle, with counts", _RECT),
    "formula": (_cmd_formula, "evaluate one closed-form expression", [
        _JSON, _arg("name", choices=sorted(FORMULAS)), _arg("values", type=int, nargs="+")
    ]),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser from COMMANDS and its subparsers by name; parsing leaves them as they were."""
    parser = argparse.ArgumentParser(
        prog="rectcat",
        description="Count, enumerate, and decompose Dyck paths in rectangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (handler, about, arguments) in COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=about)
        p.set_defaults(handler=handler)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser, commands


@functools.cache
def _grammar(command: str) -> tuple[dict, list, dict]:
    """COMMANDS[command] as argparse's defaults, the positionals, and the options by name."""
    handler, _, arguments = COMMANDS[command]
    defaults = {"command": command, "handler": handler}
    positionals, options = [], {}
    for (flag, *_), kwargs in arguments:
        switch = kwargs.get("action") == "store_true"
        dest = flag.lstrip("-").replace("-", "_")
        defaults[dest] = kwargs.get("default", False if switch else None)
        if flag[0] == "-":
            options[flag] = dest, 0 if switch else kwargs.get("nargs", 1), kwargs
        else:
            positionals.append((dest, kwargs))
    return defaults, positionals, options


def _read(kwargs, words: list[str]) -> list:
    """words as add_argument(**kwargs) converts them; ValueError where argparse would refuse."""
    values = [kwargs.get("type", str)(word) for word in words]
    if "choices" in kwargs and any(value not in kwargs["choices"] for value in values):
        raise ValueError("invalid choice")
    return values


def _table_args(argv: list[str]) -> argparse.Namespace:
    """argparse's namespace for an argv of the form _parse_args names; ValueError for any other."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError("not a command")
    found, positionals, options = _grammar(argv[0])
    found, words, at = dict(found), argv[1:], 0
    end = next((i for i, word in enumerate(words) if word[:1] == "-"), len(words))
    for dest, kwargs in positionals:
        nargs = kwargs.get("nargs")
        taken = words[at:end if nargs == "+" else min(at + 1, end)]
        if taken:
            values = _read(kwargs, taken)
            found[dest] = values if nargs == "+" else values[0]
        elif nargs != "?":
            raise ValueError("too few positionals")
        at += len(taken)
    while at < len(words):  # a positional too many is no option name either
        if words[at] not in options:
            raise ValueError("not an option name")
        dest, n, kwargs = options[words[at]]
        taken = words[at + 1:at + 1 + n]
        if len(taken) < n or any(word[:1] == "-" for word in taken):
            raise ValueError("missing option value")
        values = _read(kwargs, taken)
        found[dest] = True if n == 0 else values if "nargs" in kwargs else values[0]
        at += 1 + n
    args = argparse.Namespace()
    vars(args).update(found)
    return args


def _parse_args(argv: list[str] | None):
    """The whole parser's parse_args(argv), read from COMMANDS when argv is well formed.

    Well formed is a command's name, then its positionals, then exact option
    names, each followed by its values, where no positional or value starts
    with "-" and each converts by its type and choices.  Such an argv builds
    no parser.  Every other argv, help included, goes to argparse unchanged,
    with argparse's words and exit codes: a command's subparser parses what
    follows its name in one pass, and the whole parser anything else.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _table_args(argv)
    except ValueError:
        pass
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _print_report(report) -> None:
    """Print json.dumps(report, sort_keys=True).

    The pieces of each _Verbatim value go to stdout one by one, so no joined
    copy of them is ever made, and pieces from a generator are made as they
    are written.
    """
    spliced = []

    def splice(value):
        spliced.append(value.pieces)
        return _SPLICE

    head, *tails = json.dumps(report, sort_keys=True, default=splice).split(json.dumps(_SPLICE))
    out = sys.stdout
    out.write(head)
    for pieces, tail in zip(spliced, tails):
        out.writelines(pieces)
        out.write(tail)
    out.write("\n")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        lines, results, failures = args.handler(args)
    except (ValueError, OSError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as err:
        print(f"internal check failed: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    try:
        if args.json:
            report = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "results": results,
                "failures": failures,
            }
            _print_report(report)
        else:
            sys.stdout.writelines(lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early.  Python flushes stdout again at exit, so point
        # it at devnull to keep that flush quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_MISMATCH if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
