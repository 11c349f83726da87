"""Every CLI output pinned in ``tests/golden/record.json`` is reproduced
byte for byte: exit code, stdout and stderr of ``cli.main`` run in process
(``golden_record.py`` says what the record covers and when it may be
regenerated), and of one argv for each exit code run as its own process."""

import sys

import pytest

from golden_record import ROOT, assert_matches, load, run_argv, run_process

ARGVS = load()["argvs"]
BY_ARGV = {" ".join(e["argv"]): e for e in ARGVS}
# one argv for each exit code a run can give but 1: 0, 2, 3 and 4
PROCESS_ARGVS = ["li --n 2 --z 0.5", "li --n 2", "li --n 1 --z nan",
                 "integrate --n 4 --k 3 --z 0.5,0.3 --tol 1e-17"]


@pytest.mark.parametrize("want", ARGVS,
                         ids=[" ".join(e["argv"]) for e in ARGVS])
def test_argv_matches_the_golden_record(want):
    assert_matches(want, *run_argv(want["argv"]))


@pytest.mark.parametrize("argv", PROCESS_ARGVS)
def test_process_matches_the_golden_record(argv, monkeypatch):
    """``python -m polylogvar`` under run_process's caps, as CI runs every
    argv through the installed ``polylogvar``: the exit code is the
    process's, which an in-process run cannot show."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert_matches(BY_ARGV[argv], *run_process(
        [sys.executable, "-m", "polylogvar"], argv.split()))
