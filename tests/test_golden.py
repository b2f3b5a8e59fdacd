"""Every CLI run pinned in tests/golden_cli.tsv still gives its exit code and output."""

import golden


def test_golden_cli_corpus():
    diff = golden.first_difference()
    assert diff is None, diff
