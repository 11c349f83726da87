import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar import analytic, arnold, cli, errors, poset
from polylogvar.cli import main
from polylogvar.hodge import FlatnessReport
from polylogvar.partitions import paving_check
from polylogvar.report import RunReport

from golden_record import PATHS, ROOT
from oracles import (ref_eulerian, ref_polylog, ref_solution,
                     ref_word_monodromy)


def run_cli(args):
    """Run in-process, capturing stdout."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_li_report_schema():
    code, out = run_cli(["li", "--n", "2", "--z", "0.5", "--tol", "1e-12"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"command", "params", "result", "verdict", "elapsed_ms"}
    assert rep["command"] == "li"
    assert rep["params"]["z"] == "0.5"
    assert rep["result"]["value"][0].startswith("0.5822405264")
    assert rep["elapsed_ms"] is None


def test_monodromy_loop1():
    code, out = run_cli(["monodromy", "--n", "1", "--loop", "loop1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["matrix"] == [["1", "-1"], ["0", "1"]]


def test_monodromy_from_path_file(tmp_path):
    loop = {"base": [0.5, 0.0],
            "segments": [{"line": [0.6, -0.5]}, {"line": [1.4, -0.5]},
                         {"line": [1.4, 0.5]}, {"line": [0.6, 0.5]},
                         {"line": [0.6, -0.5]}, {"line": [0.5, 0.0]}],
            "closed": True}
    f = tmp_path / "loop.json"
    f.write_text(json.dumps(loop))
    code, out = run_cli(["monodromy", "--n", "1", "--loop", str(f)])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["matrix"] == [["1", "-1"], ["0", "1"]]
    # a turn about 0, then one about 1, joined by one line: M_0 M_1 at n = 6
    code, out = run_cli(["monodromy", "--n", "6", "--loop",
                         str(ROOT / PATHS / "both-arcs.json")])
    assert code == 0
    assert [[Fraction(v) for v in row]
            for row in json.loads(out)["result"]["matrix"]] == \
        ref_word_monodromy(6, [(0, 1), (1, 1)])


def test_postnikov_pass():
    code, out = run_cli(["postnikov", "--n", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    rows = {r["k"]: (r["dimension"], r["stirling"]) for r in rep["result"]["table"]}
    assert rows[2] == (11, 11)


def test_csv_format():
    code, out = run_cli(["arnold", "--n", "4", "--format", "csv"])
    assert code == 0
    # stdout ends at the last row's newline, with no blank line after it
    assert out.endswith("\n") and [] not in csv.reader(io.StringIO(out))
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    kv = dict(line.split(",", 1) for line in lines[1:])
    assert kv["result.dimension"] == "6"
    assert kv["verdict"] == "pass"


def test_csv_flattens_nested_tables():
    code, out = run_cli(["postnikov", "--n", "3", "--format", "csv"])
    assert code == 0
    kv = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    assert kv["result.table.1.dimension"] == "3"
    assert kv["result.table.1.stirling"] == "3"



@pytest.mark.parametrize("argv", [
    ["monodromy", "--n", "2", "--loop", "loop0"],
    ["transport", "--n", "2", "--loop", "loop1"],
    ["flatness", "--n", "2"],
    ["lambda", "--n", "2", "--z", "0.9"],
])
def test_a_step_past_two_fifths_is_a_numerical_failure(monkeypatch, capsys,
                                                       argv):
    """With the float64 plan and check set past 0.4 (0.41 and 0.42), the
    chains plan steps that ``_step_row``'s exact test refuses: exit 4 with
    its message, and nothing on stdout."""
    monkeypatch.setattr(analytic, "_PLAN_RATIO", 0.41)
    monkeypatch.setattr(analytic, "_CHECK_RATIO", 0.42)
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: a disk step is longer than 0.4 times "
                   "the distance to the punctures\n")


def test_report_refuses_an_unknown_type():
    """A bare mpf or a set in a result has no report form: TypeError."""
    for value in (mp.mpf(1), {1}):
        rep = RunReport("li", {"n": 1}, {"value": value})
        with pytest.raises(TypeError, match="cannot serialize"):
            rep.to_json(analytic.DEFAULT_PREC)


def test_csv_quotes_and_reads_back():
    """A value holding a comma, a quote, a newline or a carriage return is
    quoted, its quotes doubled, and csv.reader gives back the key/value
    pairs of the report."""
    text = 'a,b "c"\nd'
    loop = "lo\rop.json"
    rep = RunReport("omega", {"n": 1, "loop": loop},
                    {"s": text, "rows": [[1, "x,y"], []]}, "pass")
    out = rep.to_csv(analytic.DEFAULT_PREC)
    assert '"a,b ""c""\nd"' in out
    assert '\nparams.loop,"lo\rop.json"\n' in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert dict(rows[1:]) == {
        "command": "omega", "params.loop": loop, "params.n": "1",
        "result.s": text,
        "result.rows.0.0": "1", "result.rows.0.1": "x,y", "verdict": "pass",
        "elapsed_ms": ""}
    assert len(rows) == 9

def test_byte_determinism_in_process():
    args = ["paving", "--n", "3", "--z", "0.5", "--samples", "2000",
            "--seed", "7"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2


def test_byte_determinism_subprocess():
    cmd = [sys.executable, "-m", "polylogvar", "characters", "--n", "4"]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


# what ``import polylogvar.cli`` adds to sys.modules after numpy and mpmath
_IMPORT_ADDS = {"_decimal", "_json", "decimal", "fractions", "json",
                "json.decoder", "json.encoder", "json.scanner"}

_MODULE_PROBE = """
import contextlib, io, json, sys
import numpy, mpmath
before = set(sys.modules)
import polylogvar.cli
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    polylogvar.cli.main(["paving", "--n", "3", "--z", "0.5", "--samples", "1000"])
    polylogvar.cli.main(["integrate", "--n", "2", "--k", "1", "--z", "0.5"])
print(json.dumps({"import": sorted(imported - before),
                  "run": sorted(set(sys.modules) - imported)}))
"""


def _package_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _run_capped(argv):
    """``python -m polylogvar`` on ``argv`` as a child process with 400 MB
    of address space and 20 s of wall time."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 10 ** 6,) * 2)

    return subprocess.run([sys.executable, "-m", "polylogvar", *argv],
                          env=_package_env(), capture_output=True, text=True,
                          timeout=20, preexec_fn=limit)


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    return subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True)


def test_paving_and_integrate_import_no_numpy_submodules():
    # on numpy 1.x, ``import numpy`` loads both submodules and this holds trivially
    r = _fresh_python(_MODULE_PROBE)
    assert r.returncode == 0, r.stderr
    added = json.loads(r.stdout)
    assert not [m for m in added["run"]
                if m.split(".")[:2] in (["numpy", "random"],
                                        ["numpy", "polynomial"])]
    assert {m for m in added["import"]
            if m.split(".")[0] != "polylogvar"} <= _IMPORT_ADDS
    # canonical calls read their flags from the table, without argparse
    assert not {"argparse", "gettext"} & set(added["run"])


_IMPORT_PROBE = """
import json, sys
start = set(sys.modules)
import mpmath
before = set(sys.modules)
import polylogvar.cli
print(json.dumps([sorted(set(sys.modules) - m) for m in (before, start)]))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_battery():
    """Without numpy, which loads inspect itself, ``import polylogvar.cli``
    adds neither the stdlib's dataclasses and inspect nor the acceptance
    battery, which only ``suite`` reads; with the mpmath it imports, it
    still adds no dataclasses."""
    r = _fresh_python(_IMPORT_PROBE)
    assert r.returncode == 0, r.stderr
    added, with_mpmath = map(set, json.loads(r.stdout))
    assert "polylogvar.cli" in added
    assert not {"dataclasses", "inspect", "polylogvar.acceptance"} & added
    assert "dataclasses" not in with_mpmath


_NO_NUMPY_PROBE = """
import contextlib, io, sys
import polylogvar, polylogvar.cli
with contextlib.redirect_stdout(io.StringIO()):
    polylogvar.cli.main(["paving", "--n", "3", "--z", "0.5", "--samples", "1000"])
    polylogvar.cli.main(["integrate", "--n", "2", "--k", "1", "--z", "0.5"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_the_package_and_its_float_paths_never_load_numpy():
    r = _fresh_python(_NO_NUMPY_PROBE)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["li", "--n", "2"])  # missing --z
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


# a value for each flag a command can require
_REQUIRED_VALUES = {"--n": "2", "--z": "0.5", "--k": "1", "--loop": "loop0"}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_a_call_builds_only_its_own_parser(monkeypatch, name):
    """A canonical call builds no parser; help, an abbreviated flag and a
    missing required flag build exactly the command's own."""
    built, seen = [], []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def handler(args):
        seen.append(args)
        return {}, True

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    command = cli.COMMANDS[name]
    monkeypatch.setitem(cli.COMMANDS, name, command._replace(run=handler))
    required = []
    for flag, kwargs in command.flags:
        if kwargs.get("required"):
            required += [flag, _REQUIRED_VALUES[flag]]
    code, _ = run_cli([name] + required)
    assert code == 0
    assert built == []
    assert len(seen) == 1 and seen[0].command == name

    code, _ = run_cli([name, "--prec", "256"] + required)
    assert code == 0
    assert built == [f"polylogvar {name}"]
    assert len(seen) == 2 and vars(seen[1]) == dict(vars(seen[0]),
                                                    precision=256)

    built.clear()
    with pytest.raises(SystemExit) as exc:
        run_cli([name, "-h"])
    assert exc.value.code == 0
    assert built == [f"polylogvar {name}"]

    if required:
        built.clear()
        with pytest.raises(SystemExit) as exc:
            run_cli([name] + required[2:])
        assert exc.value.code == 2
        assert built == [f"polylogvar {name}"]
    assert len(seen) == 2


@pytest.mark.parametrize("error, code, kind", [
    (errors.DomainError, 3, "domain error"),
    (errors.PathError, 3, "domain error"),
    (errors.IntegrationError, 4, "numerical failure"),
    (errors.ReconstructionError, 4, "numerical failure"),
    (ArithmeticError, 4, "numerical failure")])
def test_the_exception_class_sets_the_exit_code(monkeypatch, capsys, error,
                                               code, kind):
    def handler(args):
        raise error("boom")

    command = cli.COMMANDS["arnold"]
    monkeypatch.setitem(cli.COMMANDS, "arnold",
                        command._replace(run=handler))
    assert main(["arnold", "--n", "4"]) == code
    assert capsys.readouterr() == ("", f"{kind}: boom\n")


def test_table_flags_use_only_what_the_table_read_applies():
    for name, command in cli.COMMANDS.items():
        for flag, kwargs in cli._SHARED_FLAGS + command.flags:
            assert flag.startswith("--") and "=" not in flag, (name, flag)
            assert set(kwargs) <= {"type", "choices", "default", "required",
                                   "action", "help"}, (name, flag)
            assert kwargs.get("action", "store_true") == "store_true"
            # argparse passes a string default through type; the table read
            # takes it as it is
            default = kwargs.get("default")
            if isinstance(default, str) and "type" in kwargs:
                assert kwargs["type"](default) == default, (name, flag)


def _valid_text(kwargs):
    """A value the flag's type and choices accept, as text."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    kind = kwargs.get("type")
    if kind is int:
        return st.integers(-10 ** 6, 10 ** 6).map(str)
    if kind is float:
        return st.floats(allow_nan=False).map(repr)
    if kind is cli._parse_z:
        return st.lists(st.floats(-2, 2).map(repr), min_size=1,
                        max_size=2).map(",".join)
    return st.sampled_from(["loop0", "loop1", "a=b.json", ""])


_ODD_TEXT = st.sampled_from(["", "abc", "1,2,3", "xml", "0x1", "1.5", "-3",
                             "--", "-h", "nan", "1e", " 7 "])


@st.composite
def _argv(draw, flags):
    """Tokens for one command, and whether every token is canonical and
    every required flag given."""
    spec = dict(flags)
    tokens, canonical, seen = [], True, set()

    def add(flag, toks, ok):
        nonlocal canonical
        tokens.extend(toks)
        canonical = canonical and ok
        seen.add(flag)

    def canonical_item(flag):
        kwargs = spec[flag]
        if kwargs.get("action") == "store_true":
            return [flag], True
        value = draw(_valid_text(kwargs))
        if draw(st.booleans()):
            return [f"{flag}={value}"], True
        return [flag, value], not value.startswith("-")

    if draw(st.booleans()):
        for flag, kwargs in flags:
            if kwargs.get("required"):
                add(flag, *canonical_item(flag))
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from([f for f, _ in flags]))
        kind = draw(st.sampled_from(["canonical", "canonical", "abbreviated",
                                     "odd", "odd=", "bare", "stray"]))
        if kind == "canonical":
            add(flag, *canonical_item(flag))
        elif kind == "abbreviated" and len(flag) > 3:  # else a stray token
            cut = draw(st.integers(3, len(flag) - 1))
            add(None, [flag[:cut]] + draw(st.lists(_valid_text(spec[flag]),
                                                  max_size=1)), False)
        elif kind == "odd":
            add(flag, [flag, draw(_ODD_TEXT)], False)
        elif kind == "odd=":
            add(flag, [f"{flag}={draw(_ODD_TEXT)}"], False)
        elif kind == "bare":
            add(flag, [flag], spec[flag].get("action") == "store_true")
        else:
            add(None, [draw(st.sampled_from(["-h", "--help", "foo", "--",
                                             "-0.5", "--timing=x"]))], False)
    missing = any(kwargs.get("required") and flag not in seen
                  for flag, kwargs in flags)
    return tokens, canonical and not missing


def _outcome(parse):
    """vars() of what ``parse`` returns, or its exit code, with the text it
    printed; in repr, so that a NaN --tol compares equal to itself."""
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            result = sorted(vars(parse()).items())
        except SystemExit as e:
            result = ("exit", e.code)
    return repr(result), out.getvalue()


def _argparse_reference(name, tokens):
    parser = argparse.ArgumentParser(prog=f"polylogvar {name}")
    for flag, kwargs in cli._SHARED_FLAGS + cli.COMMANDS[name].flags:
        parser.add_argument(flag, **kwargs)
    return parser.parse_args(tokens, argparse.Namespace(command=name))


@pytest.mark.parametrize("name", list(cli.COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_read_matches_argparse(name, data):
    """_parse returns what the command's argparse parser returns, or exits
    as it does with the same text; a canonical argv takes the table path."""
    flags = cli._SHARED_FLAGS + cli.COMMANDS[name].flags
    tokens, canonical = data.draw(_argv(flags))
    assert _outcome(lambda: cli._parse([name] + tokens)) == \
        _outcome(lambda: _argparse_reference(name, tokens))
    if canonical:
        assert cli._read_flags(flags, tokens) is not None


@pytest.mark.parametrize("argv", [
    ["transport", "--n=1", "--loop=--"],  # argparse reads no value: []
    ["transport", "--n", "1", "--loop", ""],
    ["li", "--n=2", "--z=-0.5,0.25", "--n=3"],
    ["li", "--n", "2", "--z", "-0.5"],
    ["flatness", "--n", "2", "--timing", "--timing"],
    ["paving", "--n=2", "--z=0.5", "--format=xml"],
    ["monodromy", "--n=1", "--loop=loop0", "--tol=-"],
])
def test_table_read_matches_argparse_on_edges(argv):
    assert _outcome(lambda: cli._parse(argv)) == \
        _outcome(lambda: _argparse_reference(argv[0], argv[1:]))


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: polylogvar [-h]")
    for name, command in cli.COMMANDS.items():
        assert name in out and command.help in out


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_help(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: polylogvar {name} [-h]")


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["polylogvar", "arnold", "--n", "4"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["result"]["dimension"] == 6


def test_domain_error_exit_3():
    code, _ = run_cli(["li", "--n", "2", "--z", "0.9"])
    assert code == 3
    code, _ = run_cli(["integrate", "--n", "5", "--k", "1", "--z", "0.5"])
    assert code == 3
    code, _ = run_cli(["li", "--n", "2", "--z", "0.5", "--precision", "32"])
    assert code == 3
    code, _ = run_cli(["flatness", "--n", "2", "--z=0.5,0.1"])
    assert code == 3


def test_numerical_failure_exit_4(first_step_off):
    # the first disk step leaves Li_1 1 off; entry (0, 1) is then about
    # 0.16 i off, beyond its proved radius, 1/16 at n = 3
    code, _ = run_cli(["monodromy", "--n", "3", "--loop", "loop1"])
    assert code == 4


def test_loop_closing_within_the_closure_tolerance_exit_0(tmp_path):
    # the loop around 1 ends 5e-10 past its base, inside the closure
    # tolerance; its disk chain closes on the base point itself
    loop = {"base": [0.5, 0.0],
            "segments": [{"line": [0.75, 0.0]},
                         {"arc": {"center": [1.0, 0.0], "sweep": 2 * math.pi}},
                         {"line": [0.5 + 5e-10, 0.0]}],
            "closed": True}
    f = tmp_path / "loop.json"
    f.write_text(json.dumps(loop))
    code, out = run_cli(["monodromy", "--n", "3", "--loop", str(f)])
    assert code == 0
    assert json.loads(out)["result"]["matrix"][0] == ["1", "-1", "0", "0"]


def test_precision_cap_below_the_certificate_exit_3(capsys):
    # at the default 128 bits row 0 is proved only within about 4.7e-40,
    # over 1 / (2 * 35!) = 4.8e-41; at 132 bits it certifies
    code, _ = run_cli(["monodromy", "--n", "35", "--loop", "loop0"])
    assert code == 3
    assert "needs 132 bits" in capsys.readouterr().err
    code, out = run_cli(["monodromy", "--n", "35", "--loop", "loop0",
                         "--precision", "132"])
    assert code == 0
    assert json.loads(out)["result"]["matrix"][1][2:4] == ["1", "1/2"]


def test_ambiguous_certificate_exit_3(capsys):
    # 128 bits cannot single out a point of (1/64!) Z: the error names the
    # 296 bits that can
    code, _ = run_cli(["monodromy", "--n", "64", "--loop", "loop0"])
    assert code == 3
    assert "needs 296 bits" in capsys.readouterr().err


def test_matrix_size_guard_exit_3():
    from polylogvar.cli import MAX_MATRIX_N
    for cmd, *rest in (["li", "--z", "0.5"], ["lambda", "--z", "0.5"],
                       ["transport", "--loop", "loop0"],
                       ["monodromy", "--loop", "loop0"],
                       ["filtration", "--z", "0.5"],
                       ["kummer-block", "--z", "0.5"], ["flatness"]):
        code, _ = run_cli([cmd, "--n", str(MAX_MATRIX_N + 1)] + rest)
        assert code == 3
    code, _ = run_cli(["lambda", "--n", str(MAX_MATRIX_N), "--z", "0.5"])
    assert code == 0


def test_form_commands_take_the_matrix_cap(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    n = cli.MAX_MATRIX_N
    cases = (["omega", "--k", "1"], ["recurrence-check", "--k", "2"])
    with monkeypatch.context() as m:
        m.setattr(cli, "omega", no_work)
        m.setattr(cli, "form_recurrence_check", no_work)
        for cmd, *rest in cases:
            code, _ = run_cli([cmd, "--n", str(n + 1)] + rest)
            assert code == 3
    for cmd, *rest in cases:
        code, out = run_cli([cmd, "--n", str(n)] + rest)
        assert code == 0 and json.loads(out)["params"]["n"] == n


def test_resource_guards_exit_3_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "li_series", no_work)
    monkeypatch.setattr(cli, "paving_check", no_work)
    code, _ = run_cli(["li", "--n", "2", "--z", "0.5", "--precision",
                       str(cli.MAX_PRECISION + 1)])
    assert code == 3
    code, _ = run_cli(["paving", "--n", "3", "--z", "0.5", "--samples",
                       str(cli.MAX_SAMPLES + 1)])
    assert code == 3


def test_resource_guards_admit_their_limits():
    code, _ = run_cli(["li", "--n", "2", "--z", "0.5", "--precision",
                       str(cli.MAX_PRECISION)])
    assert code == 0
    assert cli.MAX_PRECISION == 4096 and cli.MAX_SAMPLES == 10 ** 6


def test_tiny_z_runs_in_bounded_memory():
    """A z of modulus 1e-300000000 carries a binary exponent of about 10^9;
    the series sizing must not build integers of that many bits.  Each run
    gets 400 MB of address space and 20 s."""
    tiny = "1e-300000000"
    for cmd, z in (("li", tiny), ("li", f"{tiny},{tiny}"), ("lambda", tiny)):
        r = _run_capped([cmd, "--n", "2", "--z", z])
        assert r.returncode == 0, (cmd, z, r.stderr[-500:])
        result = json.loads(r.stdout)["result"]
        if cmd == "li":
            assert result["value"][0] == "1.0e-300000000", result
        else:
            assert result["matrix"][0][1] == ["1.0e-300000000", "0.0"]


def test_z_parts_of_very_different_size_run_in_bounded_memory():
    """One part of z of modulus 1e-300000000 beside one near 1/2 or 3/4: the
    series must not write both over the tiny part's denominator.  Each run
    gets 400 MB of address space and 20 s, and prints Li_n at z with the
    tiny part dropped, each part within one unit in its last place; in
    process the value is within a relative 2^-(prec - 1) of it."""
    tiny = "1e-300000000"
    for n, z, near in ((2, f"{tiny},0.5", mp.mpc(0, 0.5)),
                       (2, f"0.5,{tiny}", mp.mpc(0.5)),
                       (64, f"0.75,{tiny}", mp.mpc(0.75))):
        r = _run_capped(["li", "--n", str(n), "--z", z])
        assert r.returncode == 0, (z, r.stderr[-500:])
        value = json.loads(r.stdout)["result"]["value"]
        got = analytic.li_series(n, mp.mpc(*z.split(",")), prec=128)
        with mp.workprec(256):
            ref = mp.polylog(n, near)
            for text, part in zip(value, (ref.real, ref.imag)):
                assert abs(mp.mpf(text) - part) <= _last_place(text), (z, text)
            assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** -127, (z, got)


def test_huge_z_is_rejected_in_bounded_memory():
    """A z with a part of modulus 1e300000000 is far outside li's domain:
    the disk test must say so without writing z over its ~10^9-bit
    integer.  Each run gets 400 MB of address space and 20 s, and exits 3."""
    huge = "1e300000000"
    for z in (huge, f"-{huge},0", f"{huge},1", f"0.5,-{huge}"):
        r = _run_capped(["li", "--n", "2", f"--z={z}"])
        assert r.returncode == 3, (z, r.stderr[-500:])
        assert r.stderr.startswith(
            "domain error: li_series requires |z| <= 0.75"), (z, r.stderr)


def test_flag_validation_before_compute():
    code, _ = run_cli(["paving", "--n", "3", "--z", "0.5", "--samples", "-5"])
    assert code == 3


def test_missing_path_file_exit_2():
    code, _ = run_cli(["monodromy", "--n", "1", "--loop", "/nonexistent.json"])
    assert code == 2


def test_path_file_that_is_a_directory_exit_2(tmp_path, capsys):
    code, out = run_cli(["monodromy", "--n", "1", "--loop", str(tmp_path)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("usage error: [Errno")


def test_path_file_not_utf8_exit_2(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes(b'{"base": [0.5, 0], "name": "\xe9"}')
    code, out = run_cli(["monodromy", "--n", "1", "--loop", str(f)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("usage error: 'utf-8' codec")


@pytest.mark.parametrize("command", ["transport", "monodromy"])
def test_loop_without_a_value_exit_2(command, capsys):
    for loop in (["--loop=--"], ["--loop", ""]):
        assert main([command, "--n", "1"] + loop) == 2
        assert capsys.readouterr().err.startswith("usage error: --loop")


@pytest.mark.parametrize("prec", [128, 256])
def test_integrate_prints_only_the_digits_of_its_double(prec):
    code, out = run_cli(["integrate", "--n", "3", "--k", "2", "--z", "0.3,0.2",
                         "--tol", "1e-12", "--precision", str(prec)])
    assert code == 0
    ref = ref_polylog(2, mp.mpc("0.3", "0.2"))
    for text, want in zip(json.loads(out)["result"]["value"],
                          (ref.real, ref.imag)):
        digits = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
        assert len(digits) <= 17
        assert abs(mp.mpf(text) - want) <= 1e-12


def _integrate_subprocess(*argv):
    """integrate at n = 4 in a fresh interpreter that must end within 20 s."""
    return subprocess.run([sys.executable, "-m", "polylogvar", "integrate",
                           "--n", "4", *argv], capture_output=True, text=True,
                          timeout=20)


def test_integrate_near_the_cut_is_resource_bounded():
    r = _integrate_subprocess("--k", "1", "--z=2,0.05", "--tol", "1e-10")
    assert r.returncode == 0, r.stderr
    re, im = json.loads(r.stdout)["result"]["value"]
    value = mp.mpc(mp.mpf(re), mp.mpf(im))
    assert abs(value - ref_polylog(1, mp.mpc("2", "0.05"))) <= 1e-9


def test_integrate_below_float64_resolution_exit_4():
    r = _integrate_subprocess("--k", "3", "--z=0.5,0.3", "--tol", "1e-17")
    assert r.returncode == 4, r.stderr


def test_row0_near_one_exit_0():
    """Row 0 near 1 is the series' row at 3/4 stepped to z, with no term
    cap: lambda at z = 0.9999 and 512 bits prints entries 1, 2 and 64 of
    row 0 to within one unit in their last printed place, and lambda and
    flatness pass at z = 0.99999."""
    prec = 512
    code, out = run_cli(["lambda", "--n", "64", "--z", "0.9999",
                         "--precision", str(prec)])
    assert code == 0
    row = json.loads(out)["result"]["matrix"][0]
    with mp.workprec(prec):
        z = mp.mpf("0.9999")
    for j in (1, 2, 64):
        ref = ref_polylog(j, z, prec + 64)
        with mp.workprec(prec + 64):
            re, im = row[j]
            assert abs(mp.mpf(re) - ref.real) <= _last_place(re)
            assert mp.mpf(im) == 0
    code, _ = run_cli(["lambda", "--n", "4", "--z", "0.99999"])
    assert code == 0
    code, out = run_cli(["flatness", "--n", "4", "--z", "0.99999"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("command", ["lambda", "flatness"])
def test_z_closer_to_one_than_float64_steps_exit_3(command, capsys):
    """z = 1 - 1e-10 is closer to 1 than a disk chain planned in float64
    can step (about 2^-28): a PathError, exit 3."""
    code, _ = run_cli([command, "--n", "4", "--z", "0.9999999999"])
    assert code == 3
    assert "too close to step in float64" in capsys.readouterr().err


def test_path_file_closed_must_be_a_boolean(tmp_path, capsys):
    """A "closed" that is not a JSON boolean is malformed (exit 3), not read
    by truthiness as a closed path that then fails to return."""
    f = tmp_path / "open.json"
    f.write_text('{"base": [0.5, 0], "segments": [{"line": [0.6, 0]}], '
                 '"closed": "no"}')
    code, out = run_cli(["monodromy", "--n", "1", "--loop", str(f)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert "malformed path JSON" in err and "base point" not in err


def test_path_file_non_numeric_sweep_exit_3(tmp_path, capsys):
    f = tmp_path / "sweep.json"
    f.write_text('{"base": [0.5, 0], "segments": '
                 '[{"arc": {"center": [0, 0], "sweep": "x"}}]}')
    code, out = run_cli(["monodromy", "--n", "1", "--loop", str(f)])
    assert code == 3 and out == ""
    assert "malformed path JSON" in capsys.readouterr().err


def test_path_file_boolean_base_exit_3(tmp_path, capsys):
    """A JSON false is not the number 0: the base [0.5, false] is malformed,
    not the point 0.5."""
    f = tmp_path / "base.json"
    f.write_text('{"base": [0.5, false], "segments": [{"line": [0.6, 0]}]}')
    code, out = run_cli(["monodromy", "--n", "1", "--loop", str(f)])
    assert code == 3 and out == ""
    assert "malformed path JSON" in capsys.readouterr().err


def test_path_file_over_the_byte_cap_exit_2(tmp_path, capsys):
    f = tmp_path / "big.json"
    f.write_bytes(b" " * cli.MAX_PATH_BYTES + b"{")
    code, out = run_cli(["monodromy", "--n", "1", "--loop", str(f)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("usage error: --loop file is over")


def test_endless_path_file_exit_2_promptly():
    """/dev/zero never ends; the read stops one byte past the cap."""
    r = subprocess.run([sys.executable, "-m", "polylogvar", "monodromy",
                        "--n", "1", "--loop", "/dev/zero"],
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and "--loop file is over" in r.stderr


def test_malformed_path_file_exit_2(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _ = run_cli(["monodromy", "--n", "1", "--loop", str(f)])
    assert code == 2


def _transport_subprocess(tmp_path, text):
    """transport along the path JSON ``text`` in a fresh interpreter that
    must end within 20 s."""
    f = tmp_path / "path.json"
    f.write_text(text)
    return subprocess.run([sys.executable, "-m", "polylogvar", "transport",
                           "--n", "1", "--loop", str(f)], capture_output=True,
                          text=True, timeout=20)


def test_non_finite_path_exit_3(tmp_path):
    # the NaN sweep once dropped its arc and printed the matrix at 0.25
    r = _transport_subprocess(tmp_path, (
        '{"base":[0.5,0],"segments":[{"line":[0.25,0]},'
        '{"arc":{"center":[0,0],"sweep":NaN}}]}'))
    assert r.returncode == 3, r.stderr
    assert r.stdout == ""


def test_endless_arc_exit_3_at_the_disk_cap(tmp_path):
    r = _transport_subprocess(tmp_path, (
        '{"base":[0.5,0],"segments":[{"arc":{"center":[0,0],"sweep":1e9}}]}'))
    assert r.returncode == 3, r.stderr
    assert "disks" in r.stderr


def test_paving_reads_z_as_every_command_does(capsys):
    """A z that _parse_z accepts and li reads, such as 1/3, paving reads
    too, and its volume identity stays exact.  0.5,0 and 0.5,-0 are the
    real 0.5, as flatness, lambda and kummer-block read them: the same
    report, but for the echoed text; 0.5,0.1 is no real z."""
    code, out = run_cli(["paving", "--n", "2", "--z", "1/3", "--samples",
                         "2000"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "pass" and rep["result"]["volume_identity"]
    code, out = run_cli(["paving", "--n", "2", "--z", "0.5"])
    assert code == 0
    for z in ("0.5,0", "0.5,-0"):
        code, same = run_cli(["paving", "--n", "2", "--z", z])
        assert code == 0
        assert same == out.replace('"z": "0.5"', f'"z": "{z}"')
    capsys.readouterr()
    assert main(["paving", "--n", "2", "--z", "0.5,0.1"]) == 3
    assert capsys.readouterr() == \
        ("", "domain error: paving needs real z in (0, 1)\n")


def test_paving_nonrational_z_still_works():
    code, out = run_cli(["paving", "--n", "2", "--z", "0.3", "--samples",
                         "2000", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_lambda_report():
    code, out = run_cli(["lambda", "--n", "1", "--z", "0.5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["branch_tag"] == "principal"
    assert rep["result"]["matrix"][0][1][0].startswith("0.69314718")
    assert rep["result"]["matrix"][1][0] == ["0.0", "0.0"]


@pytest.mark.parametrize("command", ["transport", "monodromy"])
def test_path_based_off_the_real_interval_exit_3(command, tmp_path, capsys):
    """transport and monodromy start from the principal solution at a real
    base in (0, 1); a closed path based at 0.5 + 0.1i is a domain error of
    the library's one base check, for both commands."""
    f = tmp_path / "complex-base.json"
    f.write_text('{"base":[0.5,0.1],"segments":[{"line":[0.6,0.1]},'
                 '{"line":[0.5,0.1]}],"closed":true}')
    code, out = run_cli([command, "--n", "1", "--loop", str(f)])
    assert code == 3 and out == ""
    assert "based at real z in (0, 1)" in capsys.readouterr().err


def test_transport_contractible():
    loop = {"base": [0.5, 0.0],
            "segments": [{"line": [0.55, 0.1]}, {"line": [0.45, 0.1]},
                         {"line": [0.5, 0.0]}],
            "closed": True}
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(loop, fh)
        name = fh.name
    try:
        code, out = run_cli(["transport", "--n", "1", "--loop", name])
    finally:
        os.unlink(name)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["matrix"][0][1][0].startswith("0.69314718")


def test_gauge_check():
    code, out = run_cli(["gauge-check"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_recurrence_check_all_k():
    for n in (4, 64):
        code, out = run_cli(["recurrence-check", "--n", str(n)])
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "pass"
        assert rep["result"]["checks"] == {f"k{k}": True
                                           for k in range(2, n + 1)}


@pytest.mark.parametrize("n", [0, 1])
def test_recurrence_check_with_no_k_to_check_exit_3(n, capsys):
    """With n < 2 no k satisfies 2 <= k <= n: a domain error, not a pass
    over an empty set of checks."""
    code, out = run_cli(["recurrence-check", "--n", str(n)])
    assert code == 3 and out == ""
    assert "--n >= 2" in capsys.readouterr().err


def _eval_printed(text, point):
    """Exact value of a printed polynomial: ' + '-joined terms of '*'-joined
    factors, each a rational, a variable, or a variable^power."""
    total = Fraction(0)
    for term in text.split(" + "):
        value = Fraction(1)
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            value *= (point[name] ** int(power or 1) if name in point
                      else Fraction(factor))
        total += value
    return total


def test_omega_report():
    """For n = 1..6 and every k, the printed form and Eulerian factor,
    evaluated exactly at a rational point, against z E_r(x) / (1 - x)^(r+1)
    with E_r from the explicit alternating sum."""
    for n in range(1, 7):
        z = Fraction(-2, 3)
        ts = [Fraction(i, i + 2) for i in range(1, n + 1)]
        point = dict(z=z, **{f"t{i}": t for i, t in enumerate(ts, 1)})
        x = z * math.prod(ts)
        for k in range(n + 1):
            code, out = run_cli(["omega", "--n", str(n), "--k", str(k)])
            assert code == 0
            res = json.loads(out)["result"]
            r = n - k
            e_r = sum(c * x ** m for m, c in enumerate(ref_eulerian(r)))
            assert _eval_printed(res["eulerian_factor"], {"x": x}) == e_r
            head, tag = res["form"].rsplit(")", 1)
            assert tag == "".join(f" dt{i}" for i in range(1, n + 1))
            num, den = head[1:].split(") / (")
            want = 1 if k == 0 else z * e_r / (1 - x) ** (r + 1)
            assert _eval_printed(num, point) / _eval_printed(den, point) == want


def test_filtration_report():
    code, out = run_cli(["filtration", "--n", "2", "--z", "0.5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    assert rep["result"]["graded_dimensions"] == [[0, 1], [2, 1], [4, 1]]
    for n in (10, 11, 20, 64):
        for z in ("0.1", "0.5"):
            code, out = run_cli(["filtration", "--n", str(n), "--z", z])
            assert code == 0
            rep = json.loads(out)
            assert rep["verdict"] == "pass"
            assert rep["result"]["graded_dimensions"] == [
                [2 * k, 1] for k in range(n + 1)]


def test_filtration_needs_no_li_series(monkeypatch):
    """filtration reads its fiber's shape from kummer_rows and row 0's
    diagonal 1; it never builds row 0, even at z = 0.9999 and 512 bits."""
    def no_series(*args):
        raise AssertionError("filtration summed row 0")
    monkeypatch.setattr(analytic, "_li_row", no_series)
    code, out = run_cli(["filtration", "--n", "64", "--z", "0.9999",
                         "--precision", "512"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "pass" and rep["result"]["failures"] == []
    assert rep["result"]["graded_dimensions"] == [[2 * k, 1]
                                                  for k in range(65)]


def test_kummer_block_cli():
    code, out = run_cli(["kummer-block", "--n", "2", "--z", "0.5",
                         "--tol", "1e-10"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ["--n", "4", "--z", "0.695575", "--precision", "128", "--tol", "1e-36"],
    ["--n", "3", "--z", "0.118877", "--precision", "256", "--tol", "1e-76"],
    ["--n", "40", "--z", "0.230867"],
    ["--n", "51", "--z", "0.880774", "--precision", "64"],
])
def test_kummer_block_reads_the_matrix_error(argv):
    """The verdict takes no tolerance: each entry must lie within
    principal_lambda's proved relative radius 2^-(prec - 1).  The last two
    have entries near 1e28 one rounding away from the expected value, which
    an absolute bound of 1e-12 failed."""
    code, out = run_cli(["kummer-block"] + argv)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_flatness_cli():
    for n in ("2", "12", "20", "64"):
        code, out = run_cli(["flatness", "--n", n])
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "pass"
        assert 0 < rep["result"]["residual"] <= rep["result"]["tolerance"]
        assert sorted(rep["result"]) == ["residual", "tolerance"]
    # a complex spelling with imaginary part 0 is the real point
    _, real = run_cli(["flatness", "--n", "2", "--z=0.5"])
    code, spelled = run_cli(["flatness", "--n", "2", "--z=0.5,0"])
    assert code == 0
    assert json.loads(spelled)["result"] == json.loads(real)["result"]


@pytest.mark.parametrize("prec", [128, 256])
def test_flatness_follows_precision(monkeypatch, prec):
    seen = []

    def fake_residual(n, z, prec=None):
        seen.append(prec)
        return FlatnessReport(True, 0.25)

    monkeypatch.setattr(cli, "flatness_residual", fake_residual)
    code, out = run_cli(["flatness", "--n", "2", "--precision", str(prec)])
    assert code == 0
    assert seen == [prec]
    assert json.loads(out)["result"] == {"residual": 0.25, "tolerance": 1.0}


def test_tol_is_checked_only_where_it_is_read(capsys):
    """monodromy and transport take neither --tol nor --seed, so passing one
    is a usage error; integrate's quadrature refuses a target that is not
    positive."""
    for argv in (["monodromy", "--n", "2", "--loop", "loop0", "--tol", "0"],
                 ["transport", "--n", "2", "--loop", "loop0", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    code, _ = run_cli(["integrate", "--n", "2", "--k", "1", "--z", "0.3",
                       "--tol", "0"])
    assert code == 3


def test_each_flag_is_on_the_commands_that_take_it():
    """Every command takes --precision, --format and --timing; --seed only
    paving, and --tol only integrate, which reads it, and the three that
    cli-mix still passes it to."""
    assert [flag for flag, _ in cli._SHARED_FLAGS] == \
        ["--precision", "--format", "--timing"]

    def takes(flag):
        return {name for name, command in cli.COMMANDS.items()
                if flag in dict(command.flags)}

    assert takes("--seed") == {"paving"}
    assert takes("--tol") == {"integrate", "li", "lambda", "kummer-block"}


def test_suite_takes_no_seed(capsys):
    """The suite draws nothing, so it takes no --seed; its paving criterion
    reports each n's verdict and volume identity, and no redraw count."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["suite", "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    code, out = run_cli(["suite"])
    rep = json.loads(out)
    assert code == 0 and rep["verdict"] == "pass" and rep["params"] == {
        "precision": 128}
    paving = rep["result"]["criteria"][7]
    assert paving["details"] == {
        f"n{n}": {"passed": True, "volume_identity": True} for n in range(1, 5)}


@pytest.mark.parametrize("passed, code", [(True, 0), (None, 0), (False, 1)])
def test_exit_code_follows_the_verdict(monkeypatch, passed, code):
    """Every command's report exits 0 unless its verdict is fail, which
    exits 1."""
    for name, command in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name,
                            command._replace(run=lambda args: ({}, passed)))
    for argv in (["postnikov", "--n", "3"], ["flatness", "--n", "1"],
                 ["gauge-check"], ["suite"]):
        got, out = run_cli(argv)
        verdict = json.loads(out)["verdict"]
        assert (got, verdict) == (code, {True: "pass", None: None,
                                         False: "fail"}[passed]), argv


def test_failing_paving_family_exits_1(monkeypatch):
    """A family that covers one order twice and another not at all fails
    the paving check, and the command says so in its exit code."""
    import itertools
    doubled = list(itertools.permutations(range(1, 4)))
    doubled[-1] = doubled[0]
    monkeypatch.setattr(cli, "paving_check",
                        lambda n, z, samples, seed: paving_check(
                            n, z, samples, seed, family=doubled))
    code, out = run_cli(["paving", "--n", "3", "--z", "0.5"])
    rep = json.loads(out)
    assert code == 1 and rep["verdict"] == "fail"
    assert (rep["result"]["min_cover"], rep["result"]["max_cover"]) == (0, 2)


def test_li_rejects_a_z_just_outside_the_disk(capsys):
    """0.6 + 0.45i read at 128 bits has |z| > 3/4 exactly: exit 3.  The rim
    points 0.75i and -0.75 still run."""
    code, _ = run_cli(["li", "--n", "2", "--z", "0.6,0.45"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "domain error: li_series requires |z| <= 0.75")
    for z in ("0,0.75", "-0.75"):
        code, _ = run_cli(["li", "--n", "2", "--z", z])
        assert code == 0


@pytest.mark.parametrize("z", ["nan", "0.1,nan", "nan,0"])
def test_li_rejects_a_non_finite_z(capsys, z):
    """A NaN part fails li's own domain test, not the chain's later."""
    code, _ = run_cli(["li", "--n", "1", "--z", z])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "domain error: li_series requires |z| <= 0.75")


@pytest.mark.parametrize("argv, message", [
    (["--z", "nan"], "z must be finite and keep distance >= 0.05"),
    (["--z", "0.1,inf"], "z must be finite and keep distance >= 0.05"),
    (["--z", "0.5", "--tol", "nan"], "tol must be positive and finite"),
    (["--z", "0.5", "--tol", "inf"], "tol must be positive and finite"),
])
def test_integrate_rejects_non_finite_input(capsys, argv, message):
    code, _ = run_cli(["integrate", "--n", "1", "--k", "1"] + argv)
    assert code == 3
    assert capsys.readouterr().err.startswith(f"domain error: {message}")


def test_poset_homology_cli():
    code, out = run_cli(["poset-homology", "--n", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    assert rep["result"]["dimensions"] == [[0, 0], [1, 6]]


def _last_place(text):
    """One unit in the last printed place of an mpmath decimal string."""
    mantissa, _, exponent = text.partition("e")
    return mp.mpf(10) ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_printed_digits_are_correct(prec):
    """Every printed part lies within one unit in its last printed place of
    mpmath's value at prec + 64 bits, for z as the command reads it."""
    ref_prec = prec + 64

    def z_at(text):
        with mp.workprec(prec):
            return mp.mpc(*(mp.mpf(p) for p in text.split(",")))

    cases = []
    for n, text in ((2, "0.5"), (3, "0.3,-0.4"), (2, "-0.9")):
        code, out = run_cli(["li", "--n", str(n), "--z", text,
                             "--precision", str(prec)])
        assert code == 0
        cases.append((json.loads(out)["result"]["value"],
                      ref_polylog(n, z_at(text), ref_prec)))
    code, out = run_cli(["lambda", "--n", "2", "--z", "0.5",
                         "--precision", str(prec)])
    assert code == 0
    oracle = ref_solution(2, z_at("0.5"), ref_prec)
    for i, row in enumerate(json.loads(out)["result"]["matrix"]):
        cases.extend((v, oracle[i, j]) for j, v in enumerate(row))
    assert len(cases) == 12
    with mp.workprec(ref_prec):
        for printed, ref in cases:
            ref = mp.mpc(ref)
            for text, part in zip(printed, (ref.real, ref.imag)):
                assert abs(mp.mpf(text) - part) <= _last_place(text), \
                    (prec, text, part)


def test_printed_digits_are_correct_at_the_precision_cap():
    """At 4096 bits each printed part of Li_5(0.53 + 0.53i) lies within one
    unit in its last printed place, 1e-1232, of mpmath's value at 4160
    bits."""
    code, out = run_cli(["li", "--n", "5", "--z", "0.53,0.53",
                         "--precision", "4096"])
    assert code == 0
    with mp.workprec(4096):
        z = mp.mpc("0.53", "0.53")
    ref = ref_polylog(5, z, 4160)
    with mp.workprec(4160):
        for text, part in zip(json.loads(out)["result"]["value"],
                              (ref.real, ref.imag)):
            assert abs(mp.mpf(text) - part) <= _last_place(text) \
                <= mp.mpf(10) ** -1232


@pytest.mark.parametrize("command", ["arnold", "poset-homology"])
def test_failed_certificate_exits_4(monkeypatch, capsys, command):
    """A rank that comes out one short fails the Arnol'd certificate, and
    labelling each merge by the smaller minimum fails the poset homology's
    EL check; the command exits 4 with a message, not a traceback."""
    caches = (arnold._certify, arnold.arnold_dimension, poset.poset_homology)
    monkeypatch.setattr(arnold, "sparse_rank",
                        lambda rows, rank=arnold.sparse_rank: rank(rows) - 1)
    monkeypatch.setattr(poset, "_label", lambda blocks, a, b: blocks[a][0])
    for cached in caches:
        cached.cache_clear()
    try:
        code, out = run_cli([command, "--n", "4"])
        assert (code, out) == (4, "")
        assert capsys.readouterr().err.startswith("numerical failure: ")
    finally:
        for cached in caches:
            cached.cache_clear()
