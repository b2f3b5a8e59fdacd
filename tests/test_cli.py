"""End-to-end CLI behavior: output text, JSON reports, exit codes, caching."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from math import gcd
from types import SimpleNamespace

import pytest

from oracles import tree
from rectcat import bizley, christoffel, cli, comparison, decomposition, diagrams, formulas


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- count


def test_count_methods(capsys):
    assert run(capsys, "count", "6", "9", "--method", "bizley") == (0, "377\n", "")
    assert run(capsys, "count", "4", "6", "--method", "theorem") == (0, "23\n", "")
    assert run(capsys, "count", "2", "3", "--method", "coprime") == (0, "2\n", "")
    assert run(capsys, "count", "4", "6", "--method", "oracle") == (0, "23\n", "")
    assert run(capsys, "count", "4", "6", "--method", "decompose") == (0, "23\n", "")
    assert run(capsys, "count", "4", "8", "--method", "fuss") == (0, "55\n", "")


def test_count_auto_resolution(capsys):
    # coprime -> fuss -> theorem -> partition sum: the closed forms first, in
    # the paper's order, then the general route
    for a, b, resolved, value in [
        (2, 3, "coprime", "2"),
        (4, 8, "fuss", "55"),
        (4, 6, "theorem", "23"),  # upper family, n = 1
        (4, 2, "theorem", "3"),  # upper family, n = 0
        (6, 8, "theorem", "227"),
        (6, 9, "bizley", "377"),
    ]:
        code, out, err = run(capsys, "count", str(a), str(b), "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["results"]["resolved_method"] == resolved
        assert report["results"]["count"] == value
        assert report["results"]["oracle"] == value  # cross-checked in bound


@pytest.mark.parametrize("a, b", [(120, 180), (300, 450), (666, 999)])
def test_count_auto_on_high_gcd_finishes(capsys, a, b):
    # gcd 60, 150 and 333: p(60) = 966,467 and p(150) ~ 4e10 partition terms,
    # which a term-by-term partition sum does not get through.
    code, out, err = run(capsys, "count", str(a), str(b), "--json")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["resolved_method"] == "bizley"
    assert int(results["count"]) == diagrams.count_rect(a, b)


def test_count_past_the_int_str_digit_limit(capsys, tmp_path):
    # 7,302 digits, past the 4300 that str() converts on Python 3.11+
    want = str(Decimal(formulas.coprime_catalan(10001, 15002)))
    assert len(want) == 7302
    assert run(capsys, "count", "10001", "15002") == (0, want + "\n", "")
    code, out, err = run(capsys, "count", "10001", "15002", "--json")
    assert (code, err, json.loads(out)["results"]["count"]) == (0, "", want)
    cache = tmp_path / "counts.csv"
    assert run(capsys, "count", "10001", "15002", "--cache", str(cache)) == (0, want + "\n", "")
    with open(cache, newline="") as fh:
        assert list(csv.reader(fh))[1][:4] == ["10001", "15002", "coprime", want]
    assert run(capsys, "formula", "coprime", "10001", "15002") == (0, want + "\n", "")


def test_count_json_frozen(capsys):
    code, out, err = run(capsys, "count", "6", "9", "--json")
    assert code == 0
    assert out == (
        '{"command": "count", "failures": [], "results": {"a": 6, "b": 9, '
        '"count": "377", "method": "auto", "oracle": "377", '
        '"resolved_method": "bizley"}, "schema_version": 1}\n'
    )


def test_every_rectangle_to_40_resolves_and_refuses_by_its_domain(capsys):
    # Past the corpus, which stops at 12x18.  Each domain is written out here
    # apart from the route table: auto takes the first that holds, and an
    # explicit method refuses where its own does not.
    def theorem(a, b):  # a = 2k, b = a(n+1) - 2 with n >= 0 or b = an + 2 with n >= 1
        widths = {a * (n + 1) - 2 for n in range(b + 1)} | {a * n + 2 for n in range(1, b + 1)}
        return a % 2 == 0 and b in widths

    for a in range(1, 41):
        for b in range(1, 41):
            g = gcd(a, b)
            refusals = {  # method: (its domain holds, its refusal)
                "coprime": (g == 1, f"sides must be coprime, got gcd({a},{b}) = {g}"),
                "fuss": (
                    b % a == 0, f"fuss needs the width to be a multiple of the height, got {a}x{b}"
                ),
                "theorem": (
                    theorem(a, b), f"{a}x{b} fits neither theorem family b = a(n+1)-2 nor b = an+2"
                ),
            }
            want = next((m for m, (fits, _) in refusals.items() if fits), "bizley")
            code, out, _ = run(capsys, "count", str(a), str(b), "--json", "--check-bound", "0")
            assert (code, json.loads(out)["results"]["resolved_method"]) == (0, want), (a, b)
            for method, (fits, message) in refusals.items():
                if not fits:
                    got = run(capsys, "count", str(a), str(b), "--method", method)
                    assert got == (2, "", f"error: {message}\n"), (a, b, method)


def test_count_check_bound_disables_oracle(capsys):
    code, out, _ = run(capsys, "count", "6", "9", "--check-bound", "0", "--json")
    assert code == 0
    assert json.loads(out)["results"]["oracle"] is None


def test_count_method_errors(capsys):
    code, _, err = run(capsys, "count", "3", "5", "--method", "fuss")
    assert code == 2
    assert err == "error: fuss needs the width to be a multiple of the height, got 3x5\n"
    code, _, err = run(capsys, "count", "5", "7", "--method", "theorem")
    assert code == 2
    assert "fits neither theorem family" in err
    code, _, err = run(capsys, "count", "4", "6", "--method", "coprime")
    assert code == 2
    assert "coprime" in err
    code, _, err = run(capsys, "count", "0", "5")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "module, name, a, b, route, oracle",
    [
        (formulas, "coprime_catalan", 2, 3, "coprime", 2),
        (formulas, "fuss_catalan", 4, 8, "fuss", 55),
        (comparison, "theorem2_count", 6, 8, "theorem", 227),
        (bizley, "bizley_count", 6, 9, "bizley", 377),
    ],
    ids=["coprime", "fuss", "theorem", "bizley"],
)
def test_count_cross_check_catches_bad_formula(
    capsys, monkeypatch, module, name, a, b, route, oracle
):
    # A route that captured its function at import would miss the patch.
    monkeypatch.setattr(module, name, lambda *args: 999)
    code, out, err = run(capsys, "count", str(a), str(b))
    assert code == 3
    assert out.splitlines() == [
        "999",
        f"FAIL: method {route} gives 999 for {a}x{b}, oracle {oracle}",
    ]
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "3", "100000000000000000000000", "--method", "oracle"],
        ["enumerate", "1", "100000000000000000000"],
    ],
    ids=["count", "enumerate"],
)
def test_size_past_an_index_is_a_usage_error(capsys, argv):
    # Python cannot index this far: a domain error, not a failed cross-check.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_a_one_row_staircase_of_any_width_is_counted(capsys):
    # 2x10**23 has one row: the oracle sums its pad instead of building it.
    argv = ["count", "2", "100000000000000000000000", "--method"]
    assert run(capsys, *argv, "oracle") == (0, "50000000000000000000001\n", "")
    assert run(capsys, *argv, "bizley") == run(capsys, *argv, "oracle")


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "ballot-brute", "100", "1000000", "3"],
        ["formula", "avoidance", "5000", "3"],
        ["formula", "prime", "1000000000000000009", "3"],
    ],
)
def test_formula_closed_forms_answer_large_arguments_in_time(capsys, argv):
    # an O(ab) table of ballot counts, 2n separate binomials or trial division up to
    # the square root of a prime height would take tens of seconds or more
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "") and re.fullmatch(r"\d+\n", out)


def test_count_bizley_fault_is_an_internal_error(capsys, monkeypatch):
    phi = bizley.phi
    monkeypatch.setattr(bizley, "phi", lambda a, b, j: phi(a, b, j) + 1)
    code, out, err = run(capsys, "count", "6", "9", "--method", "bizley")
    assert (code, out) == (3, "")
    assert err.startswith("internal check failed: ")


def test_inexact_division_past_the_digit_limit_is_an_internal_error(capsys, monkeypatch):
    # The dividends here run to about 12,000 digits, past what str() converts.
    binomial = formulas.binomial
    monkeypatch.setattr(formulas, "binomial", lambda n, k: binomial(n, k) + 1)
    for argv, call in [
        (["count", "20000", "20000"], "fuss_catalan(20000,1)"),
        (["formula", "catalan", "20000"], "catalan(20000)"),
        (["formula", "catalan", "200"], "catalan(200)"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"internal check failed: {call}")
        assert not re.search(r"\d{21}", err)


def test_negative_avoidance_value_is_an_internal_error(capsys, monkeypatch):
    # The last running binomial, C(30000, 10000), comes out 0, so the value is minus twice
    # the sum below it: thousands of digits, more than str() converts.
    exact_div = formulas._exact_div

    def last_term_zero(num, den, *what):
        return 0 if den == 10000 else exact_div(num, den, *what)

    monkeypatch.setattr(formulas, "_exact_div", last_term_zero)
    code, out, err = run(capsys, "formula", "avoidance", "5000", "3")
    assert (code, out) == (3, "")
    assert err.startswith("internal check failed: avoidance_value(5000,3)")
    assert not re.search(r"\d{21}", err)


# -------------------------------------------------------------- christoffel


def test_christoffel_output(capsys):
    assert run(capsys, "christoffel", "6", "9") == (
        0,
        "rows: 7,6,4,3,1\nq: 21\ndelta: 0,1,0,1,1\n",
        "",
    )
    assert run(capsys, "christoffel", "3", "5") == (0, "rows: 3,1\nq: 4\ndelta: 0,1\n", "")
    assert run(capsys, "christoffel", "1", "5") == (0, "rows: \nq: 0\ndelta: \n", "")


def test_christoffel_refuses_a_huge_height_up_front():
    # About 2 * 10**9 numbers to print: refused before any row is built.
    proc, elapsed = run_limited("christoffel", "1000000000", "3")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: too many rows: 999999999 exceeds the cap of {diagrams.CAPS['rows']}\n"
    )
    assert elapsed < 1


def test_christoffel_row_cap(capsys, monkeypatch):
    monkeypatch.setitem(diagrams.CAPS, "rows", 5)
    assert run(capsys, "christoffel", "6", "9")[0] == 0
    for json_flag in ([], ["--json"]):
        assert run(capsys, "christoffel", "7", "9", *json_flag) == (
            2, "", "error: too many rows: 6 exceeds the cap of 5\n",
        )
    # A bad rectangle is still reported as one, and width costs nothing.
    assert run(capsys, "christoffel", "0", "9")[2].startswith("error: rectangle sides")
    monkeypatch.undo()
    assert run(capsys, "christoffel", "3", "1000000000") == (
        0, "rows: 666666666,333333333\nq: 999999999\ndelta: 0,0\n", "",
    )


def test_christoffel_json(capsys):
    code, out, _ = run(capsys, "christoffel", "6", "9", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results == {
        "a": 6,
        "b": 9,
        "rows": [7, 6, 4, 3, 1],
        "q": 21,
        "delta": [0, 1, 0, 1, 1],
    }


def test_christoffel_past_the_int_str_digit_limit(capsys):
    # The width has 4,299 digits, which int() reads; q has 4,301, past the 4300
    # that str() converts on Python 3.11+.  q is still a JSON integer.
    b = int("9" * 4299)
    q = christoffel.q_boxes(100, b)
    want = str(Decimal(q))
    assert len(want) == 4301
    start = time.perf_counter()
    code, out, err = run(capsys, "christoffel", "100", str(b))
    assert (code, err) == (0, "") and out.splitlines()[1] == f"q: {want}"
    code, out, err = run(capsys, "christoffel", "100", str(b), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out, parse_int=Decimal)["results"]["q"] == q
    assert time.perf_counter() - start < 2
    assert formulas.digits(q) == want


# --------------------------------------------------------------- decompose


def test_decompose_rectangle(capsys):
    code, out, err = run(capsys, "decompose", "4", "6")
    assert (code, err) == (0, "")
    assert out == (
        "expr: C4 + C3 + C2*C2\n"
        "value: 23\n"
        "oracle: 23\n"
        "summands: 3\n"
        "leaves: 5\n"
        "depth: 4\n"
    )


def test_decompose_explicit_diagram(capsys):
    code, out, _ = run(capsys, "decompose", "--diagram", "2")
    assert code == 0
    assert out.startswith("expr: C2 + 1\nvalue: 3\noracle: 3\n")
    code, out, _ = run(capsys, "decompose", "--diagram", "")
    assert code == 0
    assert out.startswith("expr: 1\nvalue: 1\n")


def test_decompose_big_value_line(capsys):
    code, out, _ = run(capsys, "decompose", "6", "9")
    assert code == 0
    assert "value: 377\n" in out and "oracle: 377\n" in out


def test_decompose_json_format(capsys):
    code, out, _ = run(capsys, "decompose", "4", "6", "--format", "json")
    assert code == 0
    expr_line = out.splitlines()[0]
    assert expr_line == (
        'expr: {"type":"sum","terms":[{"type":"sum","terms":[{"type":"iso","n":4},'
        '{"type":"prod","factors":[{"type":"iso","n":3},{"type":"one"}]}]},'
        '{"type":"prod","factors":[{"type":"iso","n":2},{"type":"iso","n":2}]}]}'
    )


def test_decompose_json_frozen(capsys):
    code, out, err = run(capsys, "decompose", "4", "6", "--json")
    assert (code, err) == (0, "")
    assert out == (
        '{"command": "decompose", "failures": [], "results": {"depth": 4, '
        '"diagram": [4, 3, 1], "expr": {"terms": [{"terms": [{"n": 4, "type": "iso"}, '
        '{"factors": [{"n": 3, "type": "iso"}, {"type": "one"}], "type": "prod"}], '
        '"type": "sum"}, {"factors": [{"n": 2, "type": "iso"}, {"n": 2, "type": "iso"}], '
        '"type": "prod"}], "type": "sum"}, "leaves": 5, "oracle": "23", "summands": 3, '
        '"text": "C4 + C3 + C2*C2", "value": "23"}, "schema_version": 1}\n'
    )


def decompose_report(mu) -> str:
    """The --json stdout of decompose, as json.dumps writes the whole report."""
    expr = decomposition.decompose(mu)
    summands, leaves, depth = decomposition.expr_stats(expr)
    results = {
        "diagram": list(mu),
        "expr": tree(expr),
        "text": decomposition.render(expr),
        "value": str(decomposition.h_value(expr)),
        "oracle": str(diagrams.count_paths(mu)),
        "summands": summands,
        "leaves": leaves,
        "depth": depth,
    }
    report = {"schema_version": 1, "command": "decompose", "results": results, "failures": []}
    return json.dumps(report, sort_keys=True) + "\n"


def test_decompose_reports_match_render(capsys):
    for a in range(1, 9):
        for b in range(1, 13):
            mu = diagrams.christoffel_diagram(a, b)
            assert run(capsys, "decompose", str(a), str(b), "--json") == (
                0, decompose_report(mu), ""
            )
            code, out, _ = run(capsys, "decompose", str(a), str(b), "--format", "json")
            assert code == 0
            dump = json.dumps(tree(decomposition.decompose(mu)), separators=(",", ":"))
            assert out.splitlines()[0] == "expr: " + dump
    for rows in ["", "2", "7,6,4,3,1", "5,5,5", "9,1,1,1", "3,2,2,1,1,0"]:
        mu = diagrams.parse_diagram(rows)
        assert run(capsys, "decompose", "--diagram", rows, "--json") == (
            0, decompose_report(mu), ""
        )


@pytest.mark.parametrize(
    "flags, formats",
    [
        ([], ["render"]),
        (["--format", "json"], ["json_pieces(sort_keys=False)"]),
        (["--json"], ["json_pieces(sort_keys=True)", "render"]),
    ],
)
def test_decompose_renders_each_form_once(capsys, monkeypatch, flags, formats):
    # Each form has one writer: render the normal form, json_pieces the tree.
    calls = []
    render, json_pieces = decomposition.render, decomposition.json_pieces

    def render_spy(expr):
        calls.append("render")
        return render(expr)

    def json_pieces_spy(expr, sort_keys=False):
        calls.append(f"json_pieces(sort_keys={sort_keys})")
        return json_pieces(expr, sort_keys=sort_keys)

    def no_loads(*args, **kwargs):
        raise AssertionError("decompose re-parses its own JSON")

    monkeypatch.setattr(decomposition, "render", render_spy)
    monkeypatch.setattr(decomposition, "json_pieces", json_pieces_spy)
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=json.dumps, loads=no_loads))
    code, out, err = run(capsys, "decompose", "6", "9", *flags)
    assert (code, err) == (0, "")
    assert sorted(calls) == formats


def test_decompose_answers_on_deep_staircase(capsys):
    # A 30,000-deep chain of sums: the builder and the JSON writer take it
    # without recursion.
    code, out, err = run(capsys, "count", "2", "60000", "--method", "decompose")
    assert (code, err) == (0, "")
    assert run(capsys, "count", "2", "60000") == (0, out, "")
    code, out, err = run(capsys, "decompose", "2", "60000", "--format", "json")
    assert (code, err) == (0, "")
    expr = decomposition.decompose(diagrams.christoffel_diagram(2, 60000))
    assert out.startswith("expr: " + "".join(decomposition.json_pieces(expr)) + "\n")
    assert out.endswith("depth: 30001\n")


def test_decompose_streams_the_json_tree_in_200_mib(tmp_path):
    # 127,919,070 bytes of compact tree go out piece by piece, so a child
    # limited to 200 MiB writes them without ever joining them.
    path = tmp_path / "tree.txt"
    with open(path, "w") as out:
        proc, _ = run_limited("decompose", "20", "30", "--format", "json", mib=200, stdout=out)
    size = path.stat().st_size
    with open(path, "rb") as fh:
        fh.seek(-min(size, 200), os.SEEK_END)
        tail = fh.read().decode()
    path.unlink()  # 128 MB that no later test reads
    assert (proc.returncode, proc.stderr) == (0, "")
    assert size == 127919070
    summands, leaves, depth = decomposition.expr_stats(
        decomposition.decompose(diagrams.christoffel_diagram(20, 30))
    )
    assert tail.endswith(f"\nsummands: {summands}\nleaves: {leaves}\ndepth: {depth}\n")


def test_decompose_writes_the_normal_form_in_200_mib(tmp_path):
    # 1,430,715 summands in 23,696,565 bytes of report: the normal form is
    # built as joined chunks, not one string a summand, so a child limited to
    # 200 MiB writes it, as the text report and as --json's "text".
    path = tmp_path / "form.txt"
    with open(path, "w") as out:
        proc, _ = run_limited("decompose", "20", "30", mib=200, stdout=out)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = path.read_text()
    assert len(report) == 23696565
    assert report.endswith("\nsummands: 1430715\nleaves: 2861429\ndepth: 92\n")
    text = report[len("expr: "): report.index("\n")]
    del report
    with open(path, "w") as out:
        proc, _ = run_limited("decompose", "20", "30", "--json", mib=200, stdout=out)
    assert (proc.returncode, proc.stderr) == (0, "")
    tail = f'"summands": 1430715, "text": "{text}", "value": "1113015378438"}}, "schema_version": 1}}\n'
    with open(path) as fh:
        fh.seek(path.stat().st_size - len(tail))
        same = fh.read() == tail  # a plain bool, so pytest does not diff 24 MB strings
    path.unlink()  # 169 MB that no later test reads
    assert same


def test_decompose_argument_errors(capsys):
    code, _, err = run(capsys, "decompose", "--diagram", "1,x")
    assert code == 2
    assert "malformed diagram" in err
    code, _, err = run(capsys, "decompose", "4", "6", "--diagram", "2")
    assert code == 2
    assert "not both" in err
    code, _, err = run(capsys, "decompose", "4")
    assert code == 2
    assert "both rectangle sides" in err


def test_decompose_reports_a_wrong_value(capsys, monkeypatch):
    monkeypatch.setattr(decomposition, "catalan", lambda n: 1)
    assert run(capsys, "decompose", "4", "6") == (
        3,
        "expr: C4 + C3 + C2*C2\n"
        "value: 3\n"
        "oracle: 23\n"
        "summands: 3\n"
        "leaves: 5\n"
        "depth: 4\n"
        "FAIL: decomposition values to 3, oracle 23\n",
        "",
    )


# --------------------------------------------------------------- enumerate


def test_enumerate_output(capsys):
    assert run(capsys, "enumerate", "2", "2") == (0, "0011\n0101 1\n", "")
    assert run(capsys, "enumerate", "1", "4") == (0, "01111\n", "")
    code, out, _ = run(capsys, "enumerate", "3", "3")
    assert code == 0
    assert len(out.splitlines()) == 5


@pytest.mark.parametrize("a, b", [(1, 1500), (2, 1200)])
def test_enumerate_long_thin_rectangles(capsys, a, b):
    # words of 1501 and 1202 letters: deeper than a recursive walk can go
    code, out, err = run(capsys, "enumerate", str(a), str(b))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == diagrams.count_rect(a, b)
    top = diagrams.christoffel_diagram(a, b)
    word = diagrams.diagram_to_word(a, b, top)
    assert lines[-1] == f"{word} {diagrams.format_diagram(top)}".rstrip()


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "2", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["count"] == 2
    assert results["paths"] == [
        {"word": "0011", "diagram": []},
        {"word": "0101", "diagram": [1]},
    ]


def test_enumerate_json_paths_are_the_library_pairs(capsys):
    for a in range(1, 6):
        for b in range(1, 8):
            code, out, _ = run(capsys, "enumerate", str(a), str(b), "--json")
            assert code == 0
            items = json.loads(out)["results"]["paths"]
            pairs = list(diagrams.enumerate_paths(a, b))
            assert [(p["word"], tuple(p["diagram"])) for p in items] == pairs


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_enumerate_streams_to_stdout_in_constant_memory(monkeypatch, fmt):
    # 450 MB of output, written as it is made into a stdout that keeps nothing.
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["enumerate", "2", "30000", *fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_enumerate_counts_once(capsys, monkeypatch, fmt):
    # The count the cap is checked against is also the JSON count: one pass of the DP.
    passes = []
    fillings = diagrams._fillings

    def spy(rows):
        passes.append(rows)
        return fillings(rows)

    monkeypatch.setattr(diagrams, "_fillings", spy)
    code, out, _ = run(capsys, "enumerate", "13", "9", *fmt)
    assert (code, len(passes)) == (0, 1)
    if fmt:
        assert json.loads(out)["results"]["count"] == diagrams.count_rect(13, 9)


def test_enumerate_limit(capsys):
    code, _, err = run(capsys, "enumerate", "3", "3", "--limit", "4")
    assert code == 2
    assert err == "error: too many paths: 5 exceeds the cap of 4\n"


def run_limited(*argv, mib=400, stdout=subprocess.PIPE):
    """Run the CLI in a child limited to ``mib`` MiB of address space: (process, seconds).

    The child's stdout is captured unless ``stdout`` names a file to write it to.
    """
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mib * 2**20, mib * 2**20))

    src = os.path.dirname(os.path.dirname(cli.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rectcat.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc, time.perf_counter() - start


def test_enumerate_refuses_a_huge_word_up_front():
    # One path of 10**12 letters: refused before any word is built, so a child
    # limited to 400 MiB of address space answers with exit 2 at once.
    proc, elapsed = run_limited("enumerate", "1", "1000000000000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: too many letters: 1000000000002 exceeds the cap of {diagrams.CAPS['letters']}\n"
    )
    assert elapsed < 1


def test_enumerate_refuses_a_huge_count_in_512_mib():
    # 50,000,001 paths: the forward count's one row of 5*10**7 entries is
    # only summed, never built, so the cap refuses in a child limited to
    # 512 MiB instead of running out of memory.
    proc, _ = run_limited("enumerate", "2", "100000000", "--limit", "10", mib=512)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: too many paths: 50000001 exceeds the cap of 10\n"


def test_enumerate_refuses_a_huge_count_in_400_mib_at_once():
    # The same refusal costs O(1) in the row's length: no list as long as
    # the row is built, so it comes within a second under 400 MiB.
    proc, elapsed = run_limited("enumerate", "2", "100000000", "--limit", "10", mib=400)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: too many paths: 50000001 exceeds the cap of 10\n"
    assert elapsed < 1


def test_the_oracle_counts_a_tall_rectangle_as_its_one_row_transpose(capsys):
    # The oracle counts the orientation with fewer rows, which holds because
    # the staircase row count gives the same number both ways: checked here
    # on both staircases, since count_rect itself now only builds one.
    for a in range(1, 40):
        for b in range(a + 1, 40):
            wide = diagrams.count_paths(diagrams.christoffel_diagram(a, b))
            assert diagrams.count_paths(diagrams.christoffel_diagram(b, a)) == wide, (a, b)
    # 10**8 x 2 is the one row of 2 x 10**8, summed without being built, so
    # it answers within a second under 400 MiB.
    proc, elapsed = run_limited("count", "100000000", "2", "--method", "oracle")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (0, proc.stdout, "") == run(capsys, "count", "2", "100000000", "--method", "oracle")
    assert elapsed < 1


# For each cap: a value small enough to test, an argv of exactly that size,
# which answers, and an argv past it with its size.
CAP_CASES = {
    "paths": (5, ["enumerate", "3", "3"], ["enumerate", "3", "5"], 7),
    "letters": (35, ["enumerate", "3", "3"], ["enumerate", "3", "5"], 63),
    "rows": (5, ["christoffel", "6", "9"], ["christoffel", "7", "9"], 6),
}


def test_every_cap_refuses_past_it_and_admits_at_it(capsys, monkeypatch):
    assert CAP_CASES.keys() == diagrams.CAPS.keys()
    monkeypatch.delenv("RECTCAT_MAX_ENUM", raising=False)
    for what, (cap, admitted, refused, size) in CAP_CASES.items():
        with monkeypatch.context() as m:
            m.setitem(diagrams.CAPS, what, cap)
            for json_flag in ([], ["--json"]):
                code, out, err = run(capsys, *admitted, *json_flag)
                assert (code, err) == (0, ""), (what, json_flag)
                if admitted[0] == "enumerate":
                    paths = json.loads(out)["results"]["paths"] if json_flag else out.splitlines()
                    assert len(paths) == 5
                assert run(capsys, *refused, *json_flag) == (
                    2, "", f"error: too many {what}: {size} exceeds the cap of {cap}\n",
                ), (what, json_flag)


def test_enumerate_a_tall_rectangle_in_little_memory():
    # One path of 30,000,001 letters: the walk holds nothing per down step,
    # so a child limited to 200 MiB writes it as one line.
    proc, _ = run_limited("enumerate", "30000000", "1", mib=200)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0" * 30000000 + "1\n"


def test_enumerate_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("RECTCAT_MAX_ENUM", "4")
    code, _, err = run(capsys, "enumerate", "3", "3")
    assert code == 2
    assert "exceeds the cap of 4" in err
    # an explicit --limit overrides the environment
    code, out, _ = run(capsys, "enumerate", "3", "3", "--limit", "5")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_enumerate_checks_the_rectangle_before_the_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("RECTCAT_MAX_ENUM", "x")
    bad_rect = "error: rectangle sides must be positive integers, got 0x3\n"
    assert run(capsys, "enumerate", "0", "3") == (2, "", bad_rect)
    bad_cap = "error: RECTCAT_MAX_ENUM must be an integer, got 'x'\n"
    assert run(capsys, "enumerate", "2", "3") == (2, "", bad_cap)


# ------------------------------------------------------ verify / identities


def test_verify_defaults(capsys):
    code, out, err = run(capsys, "verify")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "coprime-formula-vs-oracle  cells=52      ok",
        "fuss-formula-vs-oracle     cells=25      ok",
        "prime-dispatch-vs-oracle   cells=40      ok",
        "bizley-vs-oracle           cells=80      ok",
        "catalan-on-squares         cells=8       ok",
        "theorem1-vs-oracle         cells=15      ok",
        "theorem2-vs-oracle         cells=12      ok",
        "rule2-upper-telescopes     cells=12      ok",
        "rule2-lower-telescopes     cells=16      ok",
        "split-contract-exhaustive  cells=2331    ok",
        "decomposition-vs-oracle    cells=415     ok",
        "q-boxes-vs-row-sum         cells=80      ok",
        "delta-rows-vs-q-step       cells=35      ok",
        "delta-closed-forms         cells=288     ok",
        "special-row-guard          cells=9       ok",
        "RESULT: PASS (15 checks, 3418 cells)",
    ]


def test_verify_ignores_the_enumerate_cap(capsys, monkeypatch):
    # verify's sweeps enumerate under the library's own cap, whatever the
    # environment holds for the enumerate command.
    monkeypatch.delenv("RECTCAT_MAX_ENUM", raising=False)
    expected = run(capsys, "verify")
    monkeypatch.setenv("RECTCAT_MAX_ENUM", "1")
    code, out, err = run(capsys, "verify")
    assert (code, out, err) == expected
    assert (code, out.splitlines()[-1]) == (0, "RESULT: PASS (15 checks, 3418 cells)")


def test_verify_small_bounds(capsys):
    code, out, err = run(capsys, "verify", "--max-a", "4", "--max-b", "5")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "RESULT: PASS (15 checks, 354 cells)"
    assert sum(1 for line in lines if line.endswith(" ok")) == 15
    assert not any("FAIL" in line for line in lines)


def test_verify_trivial_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--max-a", "2", "--max-b", "2")
    assert code == 0
    assert out.splitlines()[-1] == "RESULT: PASS (15 checks, 60 cells)"


def test_verify_families_flag(capsys):
    code, out, _ = run(capsys, "verify", "--max-a", "2", "--max-b", "2", "--families", "1", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("RESULT: PASS")


def test_verify_detects_injected_fault(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "fuss_catalan", lambda a, k: 1)
    code, out, _ = run(capsys, "verify", "--max-a", "3", "--max-b", "4")
    assert code == 3
    lines = out.splitlines()
    assert any(line.startswith("fuss-formula-vs-oracle") and line.endswith("FAIL") for line in lines)
    assert lines[-5:] == [
        "counterexamples:",
        "  fuss(2,1) = 1, oracle 2",
        "  fuss(2,2) = 1, oracle 3",
        "  fuss(3,1) = 1, oracle 5",
        "RESULT: FAIL (15 checks, 140 cells)",
    ]


def test_verify_counterexample_text(capsys, monkeypatch):
    def trip(a):
        raise ArithmeticError(f"guard tripped at {a}")

    monkeypatch.setattr(formulas, "catalan", lambda n: 0)
    monkeypatch.setattr(comparison, "rule2_terms", lambda a, family, n: [])
    monkeypatch.setattr(christoffel, "special_r", trip)
    code, out, _ = run(capsys, "verify", "--max-a", "3", "--max-b", "4", "--families", "1", "1")
    assert code == 3
    assert out.splitlines()[-10:] == [
        "counterexamples:",
        "  catalan(1) = 0, oracle 1",
        "  catalan(2) = 0, oracle 2",
        "  catalan(3) = 0, oracle 5",
        "  rule2(2,lower,0) terms sum to 0, width step 1",
        "  rule2(2,lower,1) terms sum to 0, width step 1",
        "  special_r(2) aborted: guard tripped at 2",
        "  special_r(3) aborted: guard tripped at 3",
        "  special_r(4) aborted: guard tripped at 4",
        "RESULT: FAIL (15 checks, 132 cells)",
    ]


def test_verify_json_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "fuss_catalan", lambda a, k: 1)
    code, out, _ = run(capsys, "verify", "--max-a", "3", "--max-b", "4", "--json")
    assert code == 3
    report = json.loads(out)
    assert report["failures"]
    assert any(c["failures"] for c in report["results"]["checks"])


def test_verify_lists_ten_counterexamples_then_the_rest_as_a_count(capsys, monkeypatch):
    monkeypatch.setattr(bizley, "bizley_count", lambda a, b: 0)
    code, out, _ = run(capsys, "verify", "--max-a", "3", "--max-b", "4")
    assert code == 3
    assert out.splitlines()[-13:] == [
        "counterexamples:",
        "  bizley(1,1) = 0, oracle 1",
        "  bizley(1,2) = 0, oracle 1",
        "  bizley(1,3) = 0, oracle 1",
        "  bizley(1,4) = 0, oracle 1",
        "  bizley(2,1) = 0, oracle 1",
        "  bizley(2,2) = 0, oracle 2",
        "  bizley(2,3) = 0, oracle 2",
        "  bizley(2,4) = 0, oracle 3",
        "  bizley(3,1) = 0, oracle 1",
        "  bizley(3,2) = 0, oracle 2",
        "  ... and 2 more",
        "RESULT: FAIL (15 checks, 140 cells)",
    ]


def test_identities(capsys):
    code, out, _ = run(capsys, "identities", "--max-a", "6", "--max-b", "12")
    assert code == 0
    assert out.splitlines()[-1] == "RESULT: PASS (4 checks, 285 cells)"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["verify", "--max-a", "-1"], "--max-a", -1),
        (["verify", "--max-b", "-1"], "--max-b", -1),
        (["verify", "--families", "-2", "-2"], "--families", -2),
        (["verify", "--families", "1", "-1"], "--families", -1),
        (["identities", "--max-a", "-1"], "--max-a", -1),
        (["identities", "--max-b", "-3"], "--max-b", -3),
    ],
)
def test_sweeps_refuse_a_negative_bound(capsys, argv, flag, value):
    # A negative bound sweeps nothing, so it would otherwise pass.
    assert run(capsys, *argv) == (2, "", f"error: {flag} must not be negative, got {value}\n")


def test_sweeps_take_a_zero_bound(capsys):
    code, out, _ = run(capsys, "verify", "--max-a", "0", "--families", "0", "0")
    assert code == 0
    assert out.splitlines()[-1].startswith("RESULT: PASS")
    code, out, _ = run(capsys, "identities", "--max-b", "0")
    assert code == 0


# ------------------------------------------------------------------ expand


def test_expand_lower_family_frozen(capsys):
    code, out, err = run(capsys, "expand", "6", "8")
    assert (code, err) == (0, "")
    assert out == (
        "family: lower (a=6, b=8, n=1)\n"
        "1x2 * 5x6: 1 * 42 = 42\n"
        "2x3 * 4x5: 2 * 14 = 28\n"
        "3x4 * 3x4: 5 * 5 = 25\n"
        "sum: 95\n"
        "width step count(6,8) - count(6,7) = 95\n"
        "RESULT: PASS\n"
    )


def test_expand_counts_each_rectangle_once(capsys, monkeypatch):
    # 6x8 has the terms 1x2 * 5x6, 2x3 * 4x5, 3x4 * 3x4 and the step 6x8 - 6x7.
    # The coprime ones are counted in closed form, 6x8 by the partition sum.
    asked = []

    def spy(count):
        def counted(a, b):
            asked.append((a, b))
            return count(a, b)
        return counted

    monkeypatch.setattr(formulas, "coprime_catalan", spy(formulas.coprime_catalan))
    monkeypatch.setattr(bizley, "bizley_count", spy(bizley.bizley_count))
    monkeypatch.setattr(diagrams, "count_rect", None)
    assert run(capsys, "expand", "6", "8")[0] == 0
    assert len(asked) == len(set(asked)) == 7
    assert (6, 8) in asked


def test_expand_answers_a_large_rectangle_at_once():
    # About a thousand terms of 2,000-by-2,002 size, each counted in closed form.
    proc, elapsed = run_limited("expand", "2000", "2002")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "RESULT: PASS"
    assert elapsed < 2


def test_expand_upper_family(capsys):
    code, out, _ = run(capsys, "expand", "8", "14")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family: upper (a=8, b=14, n=1)"
    assert lines[-1] == "RESULT: PASS"
    assert "sum: 6333" in lines


def test_expand_rejects_other_rectangles(capsys):
    code, _, err = run(capsys, "expand", "5", "7")
    assert code == 2
    assert "fits neither theorem family" in err


def test_expand_reports_a_broken_bridge(capsys, monkeypatch):
    # The terms come from comparison.rule2_terms at call time, so a fault there shows.
    monkeypatch.setattr(comparison, "rule2_terms", lambda a, family, n: [])
    assert run(capsys, "expand", "6", "8") == (
        3,
        "family: lower (a=6, b=8, n=1)\n"
        "sum: 0\n"
        "width step count(6,8) - count(6,7) = 95\n"
        "RESULT: FAIL\n",
        "",
    )
    code, out, _ = run(capsys, "expand", "6", "8", "--json")
    assert code == 3
    assert json.loads(out)["failures"] == ["term sum 0 differs from width step 95"]


# ----------------------------------------------------------------- formula


def test_formula_values(capsys):
    assert run(capsys, "formula", "ballot", "2", "5", "2") == (0, "42/5\n", "")
    assert run(capsys, "formula", "catalan", "6") == (0, "132\n", "")
    assert run(capsys, "formula", "binomial", "8", "3") == (0, "56\n", "")
    assert run(capsys, "formula", "avoidance", "1", "2") == (0, "8\n", "")
    assert run(capsys, "formula", "ballot-brute", "1", "2", "1") == (0, "2\n", "")
    assert run(capsys, "formula", "coprime", "3", "5") == (0, "7\n", "")
    assert run(capsys, "formula", "prime", "3", "6") == (0, "12\n", "")
    assert run(capsys, "formula", "fuss", "3", "2") == (0, "12\n", "")


def test_formula_errors(capsys):
    code, _, err = run(capsys, "formula", "catalan", "6", "7")
    assert code == 2
    assert err == "error: catalan takes 1 integers, got 2\n"
    code, _, err = run(capsys, "formula", "coprime", "4", "6")
    assert code == 2
    code, _, err = run(capsys, "formula", "catalan", "-1")
    assert code == 2
    # a*k has 4,399 digits, past the 4300 that str() converts on Python 3.11+.
    ones = "1" * 2200
    a_k = str(Decimal(int(ones) ** 2))
    assert len(a_k) == 4399
    assert run(capsys, "formula", "ballot", ones, "5", ones) == (
        2, "", f"error: need b > a*k, got b=5 and a*k={a_k}\n",
    )


def test_unknown_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "6", "9", "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("rectcat: error: unrecognized arguments: --bogus\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "x", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["formula", "no-such-formula", "1"])
    assert exc.value.code == 2


# ----------------------------------------------------------- cross-cutting


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run(capsys, "count", "2", "3")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in [
        ["count", "6", "9"],
        ["christoffel", "4", "6", "--json"],
        ["decompose", "--diagram", "4,3,1"],
        ["enumerate", "3", "3", "--json"],
        ["formula", "catalan", "5"],
    ]:
        assert run(capsys, *argv)[0] == 0
    assert built == []


# Every subcommand with and without --json, argparse errors and help, and
# calls whose options would leak into the next call if parsing kept state.
REUSE_SEQUENCE = [
    *(
        argv + flag
        for argv in [
            ["count", "6", "9"],
            ["count", "4", "6", "--method", "bizley", "--check-bound", "0"],
            ["christoffel", "4", "6"],
            ["decompose", "--diagram", "4,3,1", "--format", "json"],
            ["decompose", "4", "6"],
            ["enumerate", "3", "3"],
            ["verify", "--max-a", "3", "--max-b", "4", "--families", "1", "1"],
            ["verify", "--max-a", "3", "--max-b", "4"],
            ["identities", "--max-a", "4", "--max-b", "6"],
            ["expand", "4", "6"],
            ["formula", "ballot", "5", "3", "1"],
            ["formula", "catalan", "5"],
        ]
        for flag in ([], ["--json"])
    ),
    ["count", "6", "9", "--bogus"],
    ["count", "6", "9", "--js"],
    [],
    ["count", "x", "y"],
    ["formula", "no-such-formula", "1"],
    ["count", "6", "9", "--method", "nope"],
    ["count", "0", "3"],
    ["--help"],
    ["count", "--help"],
    ["enumerate", "3", "3", "--limit", "4"],
    {"RECTCAT_MAX_ENUM": "4"},
    ["enumerate", "3", "3"],
    ["enumerate", "3", "3", "--limit", "5"],
    {"RECTCAT_MAX_ENUM": "5"},
    ["enumerate", "3", "3", "--json"],
    ["enumerate", "3", "3"],
]


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")

    def play(fresh):
        monkeypatch.delenv("RECTCAT_MAX_ENUM", raising=False)
        seen = []
        for step in REUSE_SEQUENCE:
            if isinstance(step, dict):
                for name, value in step.items():
                    monkeypatch.setenv(name, value)
                continue
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = cli.main(step)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((step, code, captured.out, captured.err))
        return seen

    reused = play(fresh=False)
    assert play(fresh=True) == reused
    codes = [code for _, code, _, _ in reused]
    assert set(codes) == {0, 2}
    assert codes[-8:] == [2, 0, 0, 2, 2, 0, 0, 0]


# Argument lists at the edges of what a command's subparser sees: abbreviations,
# "--", negative numbers, help and errors inside and outside a command.
EDGE_ARGVS = [
    ["count", "3", "4", "--he"],
    ["count", "--he"],
    ["count", "3", "4", "--js"],
    ["count", "--", "3", "4"],
    ["count", "-1", "5"],
    ["count", "3", "4", "--bogus", "x"],
    ["count", "3", "4", "-h"],
    ["count", "3", "4", "--", "--json"],
    ["count", "3", "4", "--json=1"],
    ["count", "3", "4", "--meth=bizley"],
    ["count", "3", "4", "--method"],
    ["count", "3"],
    ["count", "3", "4", "5"],
    ["count"],
    ["--json", "count", "3", "4"],
    ["-h", "count"],
    ["nope"],
    [],
    ["verify", "--families", "1"],
    ["decompose", "--diagram", "4,3,1", "extra"],
    ["formula", "catalan"],
]


def parse_outcome(capsys, parse, argv):
    try:
        parsed, code = vars(parse(argv)), None
    except SystemExit as exc:
        parsed, code = None, exc.code
    captured = capsys.readouterr()
    return parsed, code, captured.out, captured.err


def test_one_pass_parse_matches_the_whole_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser, _ = cli._build_parser()
    corpus = [step for step in REUSE_SEQUENCE if isinstance(step, list)] + EDGE_ARGVS
    outcomes = []
    for argv in corpus:
        outcome = parse_outcome(capsys, cli._parse_args, argv)
        assert outcome == parse_outcome(capsys, parser.parse_args, argv), argv
        outcomes.append(outcome)
    assert {code for _, code, _, _ in outcomes} == {None, 0, 2}


def test_a_command_is_parsed_in_one_pass(capsys, monkeypatch):
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    def play(argv):
        passes.clear()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().err.splitlines()[-1:]

    _, commands = cli._build_parser()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv in REUSE_SEQUENCE + EDGE_ARGVS:
        if isinstance(argv, list) and argv[:1] and argv[0] in commands:
            play(argv)
            assert passes == [f"rectcat {argv[0]}"], argv
    # Anything else goes through the whole parser, as it always did.
    assert play([]) == (2, ["rectcat: error: the following arguments are required: command"])
    assert passes == ["rectcat"]
    assert play(["--help"]) == (0, [])
    assert passes == ["rectcat"]
    code, err = play(["nope"])
    assert (code, passes) == (2, ["rectcat"])
    assert err[0].startswith("rectcat: error: argument command: invalid choice: ")
    assert play(["--json", "count", "3", "4"]) == (
        2, ["rectcat: error: unrecognized arguments: --json"]
    )
    assert passes == ["rectcat", "rectcat count"]


def test_importing_the_cli_builds_no_parser():
    # The parser is built on the first main call, so an import, and the set-up
    # time a benchmark measures with it, never pays for it.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    built.append(kwargs.get('prog'))",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "import rectcat.cli",
        "imported = len(built)",
        "rectcat.cli.main(['formula', 'catalan', '3'])",
        "print(imported, 'rectcat' in built)",
    ])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5\n0 True\n", "")


@pytest.mark.parametrize("argv, read_lines", [
    (["enumerate", "3", "160"], 1),  # 738 KB of paths: the writer blocks on the full pipe
    (["count", "30", "45", "--method", "oracle"], 0),  # the one line is written after the close
])
def test_closed_stdout_exits_quietly(argv, read_lines):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rectcat.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(read_lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
def test_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    # main points a stdout whose reader left at devnull; the devnull it opened must not stay open.
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert cli.main(["enumerate", "6", "9"]) == 0
            monkeypatch.undo()
    assert open_fds() == before


def test_stdout_is_deterministic(capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "count", "6", "9", "--json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--max-a", "3", "--max-b", "3")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_cache_appends_csv(capsys, tmp_path):
    cache = tmp_path / "counts.csv"
    run(capsys, "count", "6", "9", "--cache", str(cache))
    run(capsys, "count", "4", "6", "--method", "oracle", "--cache", str(cache))
    with open(cache, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b", "method", "count", "micros"]
    assert rows[1][:4] == ["6", "9", "bizley", "377"]
    assert rows[2][:4] == ["4", "6", "oracle", "23"]
    assert all(int(row[4]) >= 0 for row in rows[1:])
    assert len(rows) == 3


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_cache_to_a_pipe_gets_the_header(capsys, tmp_path):
    # A pipe has no size or position, so each write to it starts like a new file.
    fifo = tmp_path / "counts.pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, "count", "6", "9", "--cache", str(fifo)) == (0, "377\n", "")
        rows = os.read(reader, 4096).decode().splitlines()
    finally:
        os.close(reader)
    assert rows[0] == "a,b,method,count,micros"
    assert rows[1].startswith("6,9,bizley,377,")
    assert len(rows) == 2


def test_cache_unwritable_path_is_a_usage_error(capsys, tmp_path):
    cache = tmp_path / "missing" / "counts.csv"
    code, out, err = run(capsys, "count", "2", "3", "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(cache) in err
