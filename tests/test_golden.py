"""Every CLI output pinned in ``tests/golden/record.json`` is reproduced
byte for byte: exit code, stdout and stderr of ``cli.main`` run in process
(``golden_record.py`` says what the record covers and when it may be
regenerated)."""

import pytest

from golden_record import assert_matches, load, run_argv

ARGVS = load()["argvs"]


@pytest.mark.parametrize("want", ARGVS,
                         ids=[" ".join(e["argv"]) for e in ARGVS])
def test_argv_matches_the_golden_record(want):
    assert_matches(want, *run_argv(want["argv"]))
