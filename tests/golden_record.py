"""The golden record: every pinned output of the CLI and the demos.

``tests/golden/record.json`` holds the exit code and the sha256 of stdout
and stderr for each argv in ARGVS, as ``polylogvar.cli.main`` writes them
in process, and for each script in DEMOS, run as a subprocess as a user
runs it.  Where a text is short, the record keeps it too, line by line, so
that a changed output shows as a readable diff.  ``tests/test_golden.py``
and ``tests/test_demos.py`` check every entry with ``assert_matches``.

CI runs ARGVS, each through the installed ``polylogvar`` in its own
process under ``run_process``'s caps, and checks each against the record:

    python tests/golden_record.py --check polylogvar

That is CI's one check of the entry point: every property of these outputs,
against mpmath, an exact formula or another run, is a Tier-1 test.

The ``--loop`` files of ARGVS are committed under ``tests/golden/paths/``
and named relative to the repository root, where ``run_argv`` and
``run_process`` run, so the ``loop`` echoed in a report is the same
wherever the tests start.  Regenerate the record with

    PYTHONPATH=src python tests/golden_record.py

Regenerating changes a check: do it only for an output change that the
commit means to make, and list every changed argv, and why, in CHANGES.md.
A changed output that was not meant is a defect to fix, never a reason to
regenerate.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "golden" / "record.json"
DEMOS = ("01_polylog_values.py", "02_monodromy.py", "03_derham_forms.py",
         "04_filtrations.py", "05_partition_combinatorics.py")
# the --loop files of ARGVS, relative to ROOT
PATHS = "tests/golden/paths"
# a text of at most this many lines and characters is kept in the record
SHORT_LINES, SHORT_CHARS = 40, 4000
# run_process's caps on a child: address space in KiB (a shell's
# `ulimit -v 400000`) and wall time in seconds
MEMORY_KIB, WALL_S = 400_000, 5

ARGVS = [
    ["-h"],
    ["arnold", "--n", "4"],
    ["characters", "--n", "7"],
    ["characters", "--n", "8"],
    ["poset-homology", "--n", "7"],
    ["poset-homology", "--n", "8"],
    ["poset-homology", "--n", "9"],
    ["li", "--n", "2", "--z", "0.5"],
    ["paving", "--n", "6", "--z", "0.5", "--samples", "1", "--seed", "0"],
    ["paving", "--n", "6", "--z", "0.5", "--samples", "1000000",
     "--seed", "123"],
    ["integrate", "--n", "3", "--k", "2", "--z", "0.3,0.2"],
    ["integrate", "--n", "4", "--k", "1", "--z", "2,0.05", "--tol", "1e-10"],
    ["li", "--n", "2", "--z", "0.5", "--prec", "256"],
    ["li", "--n", "2", "--z", "1e-300000000"],
    ["li", "--n", "2", "--z", "1e-300000000,0.5"],
    ["li", "--n", "2", "--z", "0.5,1e-300000000"],
    ["li", "--n", "64", "--z", "0.75,1e-300000000"],
    ["li", "--n", "5", "--z", "0.53,0.53", "--precision", "4096"],
    ["filtration", "--n", "64", "--z", "0.5"],
    ["filtration", "--n", "64", "--z", "0.9999", "--precision", "512"],
    ["recurrence-check", "--n", "64"],
    ["flatness", "--n", "64"],
    ["kummer-block", "--n", "40", "--z", "0.230867"],
    ["kummer-block", "--n", "51", "--z", "0.880774", "--precision", "64"],
    ["kummer-block", "--n", "64", "--z", "0.9999", "--precision", "512"],
    ["lambda", "--n", "64", "--z", "0.9999", "--precision", "512"],
    ["li", "--n", "8", "--z", "-1", "--precision", "256"],
    ["flatness", "--n", "4", "--z", "0.99999"],
    ["omega", "--n", "4", "--k", "1"],
    ["omega", "--n", "3", "--k", "1"],
    ["omega", "--n", "3", "--k", "1", "--format", "csv"],
    ["monodromy", "--n", "4", "--loop", "loop1", "--precision", "64"],
    ["monodromy", "--n", "8", "--loop", "loop0"],
    ["monodromy", "--n", "20", "--loop", "loop1", "--precision", "512"],
    ["monodromy", "--n", "20", "--loop", "loop0", "--precision", "512"],
    ["monodromy", "--n", "30", "--loop", "loop0"],
    ["monodromy", "--n", "64", "--loop", "loop1", "--precision", "299"],
    ["monodromy", "--n", "64", "--loop", "loop1", "--precision", "296"],
    ["monodromy", "--n", "64", "--loop", "loop1", "--precision", "295"],
    ["monodromy", "--n", "34", "--loop", "loop1"],
    ["monodromy", "--n", "35", "--loop", "loop0"],
    ["monodromy", "--n", "8", "--loop", "loop1", "--precision", "64"],
    ["monodromy", "--n", "8", "--loop", "loop1", "--precision", "512"],
    ["monodromy", "--n", "8", "--loop", "loop0", "--precision", "4096"],
    ["monodromy", "--n", "6", "--loop", f"{PATHS}/both-arcs.json"],
    ["monodromy", "--n", "64", "--loop", "loop0"],
    ["transport", "--n", "64", "--loop", "loop1"],
    ["transport", "--n", "2", "--loop", "loop0"],
    ["lambda", "--n", "2", "--z", "0.5"],
    ["transport", "--n", "2", "--loop", f"{PATHS}/cut-from-above.json"],
    ["transport", "--n", "2", "--loop", f"{PATHS}/cut-from-below.json"],
    ["transport", "--n", "1", "--loop", f"{PATHS}/endless-arc.json"],
    ["li", "--n", "2"],
    ["integrate", "--n", "4", "--k", "3", "--z", "0.5,0.3", "--tol", "1e-17"],
    ["monodromy", "--n", "2", "--loop", "loop0", "--tol", "0"],
    ["li", "--n", "1", "--z", "nan"],
    ["integrate", "--n", "1", "--k", "1", "--z", "0.5", "--tol", "nan"],
    ["paving", "--n", "2", "--z", "1/3"],
    ["monodromy", "--n", "1", "--loop", "."],
    ["monodromy", "--n", "1", "--loop", f"{PATHS}/boolean-base.json"],
    ["monodromy", "--n", "1", "--loop", "/dev/zero"],
    ["recurrence-check", "--n", "1"],
    ["suite", "--seed", "0"],
    ["transport", "--n", "2", "--loop", f"{PATHS}/wide-arc.json"],
    ["suite"],
    # CSV of each leaf type: an mpc matrix, a Fraction matrix, a Fraction
    # list, and suite's nested details
    ["lambda", "--n", "2", "--z", "0.5", "--format", "csv"],
    ["monodromy", "--n", "3", "--loop", "loop1", "--format", "csv"],
    ["characters", "--n", "4", "--format", "csv"],
    ["suite", "--format", "csv"],
    ["monodromy", "--n", "8", "--loop", "loop0", "--precision", "64"],
]


def run_argv(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, run in process;
    argparse's exits (help, usage errors) give their SystemExit code.
    argparse wraps its text to $COLUMNS, or to a terminal's width, so the
    width is pinned to 80 for the call; it runs in ROOT, where the --loop
    files of ARGVS are named."""
    from polylogvar.cli import main

    out, err = io.StringIO(), io.StringIO()
    columns, cwd = os.environ.get("COLUMNS"), os.getcwd()
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as e:
        code = e.code or 0
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def run_process(command, argv):
    """(exit code, stdout, stderr) of ``command + argv`` run as a child
    process from ROOT with COLUMNS=80, its address space capped at
    MEMORY_KIB and its wall time at WALL_S; a child still running at the
    cap is killed and subprocess.TimeoutExpired raised."""
    limit = MEMORY_KIB * 1024
    proc = subprocess.run(
        [*command, *argv], cwd=ROOT, capture_output=True,
        env=dict(os.environ, COLUMNS="80"), timeout=WALL_S,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def run_demo(script):
    """(exit code, stdout, stderr) of ``demos/<script>`` run as a
    subprocess from the repository root, on the source tree."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def entry(code, stdout, stderr):
    """A record entry: the exit code, each text's sha256, and each short
    text as its list of lines."""
    out = {"exit": code}
    for name, text in (("stdout", stdout), ("stderr", stderr)):
        out[f"{name}_sha256"] = sha256(text)
        if len(text) <= SHORT_CHARS and text.count("\n") <= SHORT_LINES:
            out[name] = text.splitlines()
    return out


def assert_matches(want, code, stdout, stderr):
    """Assert that a run gave the record entry ``want``: each kept text
    line by line first, for a readable diff, then every sha256 and the
    exit code."""
    for name, text in (("stdout", stdout), ("stderr", stderr)):
        if name in want:
            assert text.splitlines() == want[name], name
        assert sha256(text) == want[f"{name}_sha256"], name
    assert code == want["exit"], f"exit {code}"


def load():
    """The committed record: {"argvs": [...], "demos": {...}}, each argv's
    entry with its "argv"."""
    return json.loads(RECORD.read_text())


def check(command):
    """Run every argv of the record through ``command`` by
    ``run_process``; print each that does not match, and return how
    many did not."""
    argvs, failed = load()["argvs"], 0
    for want in argvs:
        try:
            assert_matches(want, *run_process(command, want["argv"]))
        except (AssertionError, subprocess.TimeoutExpired) as e:
            failed += 1
            print(f"FAIL {' '.join(want['argv'])}: {e!r}")
    print(f"{failed} of {len(argvs)} argvs differ from {RECORD}")
    return failed


def main(argv):
    if argv[:1] == ["--check"]:
        return 1 if check(argv[1:]) else 0
    sys.path.insert(0, str(ROOT / "src"))
    record = {
        "argvs": [dict(argv=argv, **entry(*run_argv(argv))) for argv in ARGVS],
        "demos": {script: entry(*run_demo(script)) for script in DEMOS},
    }
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(ARGVS)} argvs and {len(DEMOS)} demos to {RECORD}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
