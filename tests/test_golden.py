"""tests/golden_cli.tsv pins exactly the argvs golden.py generates, and each run
still gives its exit code and output."""

import json

import golden


def test_golden_cli_corpus():
    diff = golden.first_difference()
    assert diff is None, diff


def test_golden_corpus_holds_every_generated_argv():
    with golden.CORPUS.open() as fh:
        pinned = [json.loads(want.split("\t", 1)[0]) for want in fh]
    assert pinned == list(golden._argvs())
