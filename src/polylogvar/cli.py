"""Command-line front end.

Every subcommand validates its flags, runs one library operation, and writes
a RunReport to stdout as JSON (or CSV with --format csv).  Exit codes:
0 success, 1 a report whose verdict is fail, 2 usage error, 3 domain
error (any DomainError, PathError among them), 4 numerical failure (any
ArithmeticError: IntegrationError, ReconstructionError, or a combinatorial
certificate that does not hold).

The table COMMANDS is the one place a command is defined: its help line, its
own flags, its --n cap and its handler.  A call reads its flags straight from
that table when every token is spelled canonically (an exact flag name, with
its value after "=" or as the next token if that does not start with "-");
argparse is imported and the command's parser built only for help, a usage
error or any other spelling, and the top-level parser, which lists every
command, only for help, a missing command or an unknown one.  The commands
that build period matrices, li, omega and recurrence-check take
--n <= MAX_MATRIX_N (64).  li sums the Li series on |z| <= 0.75 and steps
its row from -3/4 along the real line to z in [-1, -0.75); lambda and
flatness take row 0 the same way, from 3/4 above it, with no term cap, so
their z may come within about 2^-28 of 1, and closer is a domain error.
A --loop path file over MAX_PATH_BYTES (1 MiB) is a usage error, found by
reading one byte past the cap, not the whole file.

Every command takes --precision, --format and --timing, and any other flag
only if it reads it, with two exceptions.  --precision sets the accuracy of
every series value, period matrix and transport.  paving takes --samples and
--seed; it checks both, echoes --samples and reads neither, as its verdict
is exact and draws no point.  --tol belongs to integrate, as its
quadrature target, which it checks; li, lambda and kummer-block accept it
too and read none of it.
monodromy, kummer-block and flatness take no tolerance.  monodromy certifies
entry (0, j) on the lattice (1/j!) Z by its proved radius, below half the
spacing 1/j!; its output is exact, so it runs at the least precision that
certifies, the fewest bits whose proved row-0 radius is below 1/(2 n!), and
--precision only caps it: a cap too low is a domain error that names the
bits needed (--n 34 certifies at the default 128, --n 35 needs 132 and
--n 64 needs 296).
kummer-block's block is an exact identity, and each entry must lie within
principal_lambda's proved relative radius 2^-(prec - 1); its max_error is
the largest relative distance of an entry from the closed form, about
2^-prec.  flatness reads the connection's tags, checks rows 1..n as
kummer-block does, and ties row 0, stepped along the line from z/2 to z, to
its series within the sum of their proved radii; its residual is the largest
distance over that sum, which must be at most its tolerance 1.0, and it
passes at every --n up to 64 at the default 128 bits.  integrate computes
the cube integral as the one-dimensional integral it equals, by a
double-exponential rule in float64 with at most 65 537 nodes a level, and
reports its value as that double, not padded to --precision digits; a --tol
below the rounding of that sum ends in exit 4.
"""

import json
import math
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

import mpmath as mp

from .analytic import (DEFAULT_PREC, kummer_rows, li_series, monodromy,
                       principal_lambda, transport)
from .arnold import (arnold_character, arnold_dimension,
                     induced_character_check, integer_partitions,
                     sign_multiplicity)
from .errors import DomainError
from .exact import eulerian
from .forms import (form_recurrence_check, gauge_exactness_check, integrate_cube,
                    omega)
from .hodge import (FilteredFiber, flatness_residual, graded_dimensions,
                    hodge_transversality_check, kummer_block_check)
from .partitions import paving_check, postnikov_graded_check
from .paths import PathSpec, canonical_loop
from .poset import poset_homology
from .report import RunReport


# Largest --n for the commands that build (n+1) x (n+1) period matrices, for
# li, which sums the row Li_1..Li_n, and for omega and recurrence-check, whose
# forms grow with n; bounds their memory and time.
MAX_MATRIX_N = 64
# Largest --precision in bits; mpmath's cost grows faster than linearly in it.
MAX_PRECISION = 4096
# Largest --samples for paving (see _SAMPLES).
MAX_SAMPLES = 10 ** 6
# Largest --loop path file, in bytes.
MAX_PATH_BYTES = 2 ** 20


def _parse_z(text):
    """Validate the 're[,im]' shape; defer numeric parsing to _z_value so the
    value is read at the command's working precision, not the default one."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        import argparse
        raise argparse.ArgumentTypeError("z must be 're' or 're,im'")
    try:
        for p in parts:
            mp.mpf(p.strip())
    except ValueError as e:
        import argparse
        raise argparse.ArgumentTypeError(f"bad z component: {e}") from e
    return text


def _z_value(args):
    parts = args.z.split(",")
    with mp.workprec(args.precision):
        if len(parts) == 1:
            return mp.mpf(parts[0].strip())
        return mp.mpc(mp.mpf(parts[0].strip()), mp.mpf(parts[1].strip()))


class _UsageError(ValueError):
    """A flag value no command can use; reported as a usage error."""


def _resolve_loop(name_or_path):
    if name_or_path in ("loop0", "loop1"):
        return canonical_loop(int(name_or_path[-1]))
    # argparse hands "--loop=--" over as an empty list
    if not isinstance(name_or_path, str) or not name_or_path:
        raise _UsageError("--loop needs loop0, loop1 or the path of a JSON file")
    with open(name_or_path, "rb") as fh:
        raw = fh.read(MAX_PATH_BYTES + 1)
    if len(raw) > MAX_PATH_BYTES:
        raise _UsageError(f"--loop file is over {MAX_PATH_BYTES} bytes")
    # JSON is UTF-8 (RFC 8259), as bytes.decode reads it whatever the locale
    return PathSpec.from_json_dict(json.loads(raw.decode()), name=name_or_path)


# The flags every command takes, before its own; (flag, add_argument kwargs).
_SHARED_FLAGS = (
    ("--precision", dict(type=int, default=DEFAULT_PREC, help=(
        f"working precision in bits (default {DEFAULT_PREC}); monodromy runs "
        "at the least precision that certifies, and this caps it"))),
    ("--format", dict(choices=("json", "csv"), default="json")),
    ("--timing", dict(action="store_true", help=(
        "include wall time in the report (breaks byte reproducibility)"))),
)
_N = ("--n", dict(type=int, required=True))
_Z = ("--z", dict(type=_parse_z, required=True))
_K = ("--k", dict(type=int, required=True))
# paving draws no point: it checks --samples and --seed, echoes --samples
# and reads neither; it takes them only because perfbench's cli-mix still
# passes them (ROADMAP item 1)
_SAMPLES = ("--samples", dict(type=int, default=10000, help=(
    "checked and echoed, read by nothing (default 10000)")))
_SEED = ("--seed", dict(type=int, default=0, help=(
    "checked, read by nothing (default 0)")))
# li, lambda and kummer-block read no tolerance; they take --tol only because
# perfbench's cli-mix still passes it to them (ROADMAP item 1)
_TOL = ("--tol", dict(type=float, default=1e-12, help=(
    "quadrature target of integrate (default 1e-12); li, lambda and "
    "kummer-block accept it and read none of it")))


# flags are (flag, add_argument kwargs); run returns (result, passed), passed
# None for a command without a verdict; max_n None leaves --n to the library.
# Handlers name library functions as module globals, so that a patched
# cli.<function> is the one that runs.
Command = namedtuple("Command", "help flags run max_n")
# Every command, in the order the top-level help lists them.
COMMANDS = {}


def _command(name, help, max_n, *flags):
    def register(run):
        COMMANDS[name] = Command(help, flags, run, max_n)
        return run
    return register


@_command("li", "evaluate the polylogarithm series", MAX_MATRIX_N, _N, _Z,
          _TOL)
def _li(args):
    return {"value": li_series(args.n, _z_value(args),
                               prec=args.precision)}, None


@_command("lambda", "principal fundamental solution matrix", MAX_MATRIX_N,
          _N, _Z, _TOL)
def _lambda(args):
    lam = principal_lambda(args.n, _z_value(args), prec=args.precision)
    return {"matrix": lam.entries, "branch_tag": lam.branch_tag}, None


@_command("transport", "continue the principal solution along a path",
          MAX_MATRIX_N, _N, ("--loop", dict(
              required=True, help="loop0, loop1, or a path JSON file")))
def _transport(args):
    moved = transport(args.n, _resolve_loop(args.loop), prec=args.precision)
    return {"matrix": moved.entries, "branch_tag": moved.branch_tag}, None


@_command("monodromy", "exact monodromy matrix of a closed loop",
          MAX_MATRIX_N, _N, ("--loop", dict(required=True)))
def _monodromy(args):
    M = monodromy(args.n, _resolve_loop(args.loop), prec=args.precision)
    return {"matrix": M.entries}, None


@_command("flatness", "certify that the solution matrix solves the connection",
          MAX_MATRIX_N, _N, ("--z", dict(type=_parse_z, default="0.5")))
def _flatness(args):
    rep = flatness_residual(args.n, _z_value(args), prec=args.precision)
    return {"residual": rep.residual, "tolerance": 1.0}, rep.passed


@_command("filtration", "weight graded dimensions and transversality",
          MAX_MATRIX_N, _N, _Z)
def _filtration(args):
    """Weight graded dimensions and transversality of the principal fiber.

    The fiber is row 0's diagonal entry 1 over rows 1..n from
    ``kummer_rows``, so no Li series is summed, even for z near 1.  Row 0
    holds None above the diagonal.  That is sound: hodge_transversality_check
    reads only the diagonal and the entries below it, as its docstring
    proves, and graded_dimensions reads only n.  Arithmetic on None raises
    and a test against 0 reads it as nonzero, so a check that began to read
    those slots would fail, not pass on a made-up value.
    """
    n = args.n
    rows = kummer_rows(n, _z_value(args), prec=args.precision)
    fib = FilteredFiber(n, ((mp.mpc(1),) + (None,) * n,)
                        + tuple(tuple(row) for row in rows))
    rep = hodge_transversality_check(fib)
    return {"graded_dimensions": graded_dimensions(fib),
            "transversal": rep.passed, "failures": rep.failures}, rep.passed


@_command("kummer-block", "divided-power symmetric-power block check",
          MAX_MATRIX_N, _N, _Z, _TOL)
def _kummer_block(args):
    rep = kummer_block_check(args.n, _z_value(args), prec=args.precision)
    return {"max_error": rep.max_error,
            "failing_entry": rep.failing_entry}, rep.passed


@_command("omega", "print a de Rham basis form", MAX_MATRIX_N, _N, _K)
def _omega(args):
    return {"form": repr(omega(args.n, args.k)),
            "eulerian_factor": eulerian(max(args.n - args.k, 0)).show(
                [("x",)])}, None


@_command("integrate", "cube integral of a basis form", None, _N, _K, _Z, _TOL)
def _integrate(args):
    # the quadrature runs in float64: report the double it is, not digits
    # that --precision would pad onto it
    return {"value": complex(integrate_cube(args.n, args.k, _z_value(args),
                                            args.tol))}, None


@_command("gauge-check", "exactness of the weight-one gauge identity", None)
def _gauge_check(args):
    ok = gauge_exactness_check()
    return {"exact": ok}, ok


@_command("recurrence-check", "exact z-derivative recurrence of the forms",
          MAX_MATRIX_N, _N, ("--k", dict(type=int, default=None)))
def _recurrence_check(args):
    ks = [args.k] if args.k is not None else list(range(2, args.n + 1))
    if not ks:
        raise DomainError("recurrence-check needs --n >= 2")
    results = {f"k{k}": form_recurrence_check(args.n, k) for k in ks}
    return {"checks": results}, all(results.values())


@_command("arnold", "dimension of the top Arnol'd component", None, _N)
def _arnold(args):
    d = arnold_dimension(args.n)
    expected = math.factorial(args.n - 1)
    return {"dimension": d, "factorial": expected}, d == expected


@_command("poset-homology", "reduced homology of the partition poset", None,
          _N)
def _poset_homology(args):
    hom = poset_homology(args.n)
    # the lower degrees are 0 by construction
    return ({"dimensions": hom},
            hom[-1][1] == math.factorial(args.n - 1))


@_command("characters", "Arnol'd character, sign multiplicity, induction",
          None, _N)
def _characters(args):
    chi = arnold_character(args.n)
    classes = ["+".join(map(str, lam)) for lam in integer_partitions(args.n)]
    s = sign_multiplicity(args.n)
    ind = induced_character_check(args.n)
    return {"classes": classes, "character": chi.values,
            "sign_multiplicity": s, "induced_identity": ind}, s == 0 and ind


@_command("postnikov", "graded dimension identity against Stirling numbers",
          None, _N)
def _postnikov(args):
    rep = postnikov_graded_check(args.n)
    return {"table": [{"k": k, "dimension": s, "stirling": c0}
                      for k, s, c0 in rep.table],
            "total_is_factorial": rep.total_matches_factorial}, rep.passed


@_command("paving", "simplex paving of the rescaled cube", None, _N, _Z,
          _SAMPLES, _SEED)
def _paving(args):
    # z is read as every command reads it, so 0.5,0 is the real 0.5
    z = _z_value(args)
    if z.imag:
        raise DomainError("paving needs real z in (0, 1)")
    # paving_check reads z as a double, and z, samples and seed enter only
    # its domain checks: the verdict is the family's multiplicities
    rep = paving_check(args.n, z.real, args.samples, args.seed)
    return {"samples": rep.samples, "redraws": rep.redraws,
            "min_cover": rep.min_cover, "max_cover": rep.max_cover,
            "volume_identity": rep.volume_identity_ok}, rep.passed


@_command("suite", "run the full acceptance battery", None)
def _suite(args):
    # imported here, as no other command reads the battery
    from . import acceptance
    results = acceptance.run_battery()
    return {"criteria": [{"number": r.number, "name": r.name,
                          "passed": r.passed, "details": r.details}
                         for r in results]}, all(r.passed for r in results)


def _read_flags(flags, tokens):
    """The values argparse would give ``flags`` for ``tokens``, keyed by
    dest, when every token is canonical: an exact flag name followed by
    "=value" or, for a value not starting with "-", by the value as the next
    token; a store_true flag bare.  None for anything else, and for a missing
    required flag or a value its type or choices reject, so that argparse can
    accept or report it."""
    spec = dict(flags)
    given = {}
    i = 0
    while i < len(tokens):
        flag, eq, value = tokens[i].partition("=")
        kwargs = spec.get(flag)
        if kwargs is None:
            return None
        i += 1
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            if i == len(tokens) or tokens[i].startswith("-"):
                return None
            value = tokens[i]
            i += 1
        elif value == "--":  # argparse reads "--flag=--" as no value
            return None
        try:
            value = kwargs.get("type", str)(value)
        except Exception:  # the fallback parser reports it, or raises it again
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    values = {}
    for flag, kwargs in flags:
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        elif kwargs.get("action") == "store_true":
            value = False
        else:
            value = kwargs.get("default")
        values[flag[2:].replace("-", "_")] = value
    return values


def _parse(argv):
    """Parse argv: a canonical call is read from its COMMANDS entry; only
    the top-level parser or one command's is built otherwise."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        flags = _SHARED_FLAGS + COMMANDS[name].flags
        values = _read_flags(flags, argv[1:])
        if values is not None:
            return SimpleNamespace(command=name, **values)
        import argparse
        parser = argparse.ArgumentParser(prog=f"polylogvar {name}")
        for flag, kwargs in flags:
            parser.add_argument(flag, **kwargs)
        return parser.parse_args(argv[1:], argparse.Namespace(command=name))
    import argparse
    parser = argparse.ArgumentParser(prog="polylogvar", description=(
        "Polylogarithm transport, monodromy, de Rham and partition-lattice "
        "checks."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sub.add_parser(name, help=cmd.help)
    parser.parse_args(argv)
    parser.error("the command must come first")


def _validate(args):
    if args.precision < 64:
        raise DomainError("--precision must be at least 64 bits")
    if args.precision > MAX_PRECISION:
        raise DomainError(f"--precision must be at most {MAX_PRECISION} bits")
    if getattr(args, "samples", 1) < 1:
        raise DomainError("--samples must be positive")
    if getattr(args, "samples", 1) > MAX_SAMPLES:
        raise DomainError(f"--samples must be at most {MAX_SAMPLES}")
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        raise DomainError("--n must be nonnegative")
    max_n = COMMANDS[args.command].max_n
    if max_n is not None and n > max_n:
        raise DomainError(f"--n must be at most {max_n} for {args.command}")


def _params_echo(args):
    skip = {"command", "format", "timing"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        out[k] = v
    return out


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        _validate(args)
        t0 = time.perf_counter()
        result, passed = COMMANDS[args.command].run(args)
        elapsed = (time.perf_counter() - t0) * 1000.0
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    # _resolve_loop's file is the only one a command reads, so an OSError
    # (missing, a directory, unreadable) or a decode error is about that file
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            _UsageError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    verdict = None if passed is None else "pass" if passed else "fail"
    report = RunReport(command=args.command, params=_params_echo(args),
                       result=result, verdict=verdict,
                       elapsed_ms=elapsed if args.timing else None)
    if args.format == "json":
        print(report.to_json(args.precision))
    else:  # the CSV ends its last row with its own newline
        print(report.to_csv(args.precision), end="")
    return 1 if passed is False else 0


if __name__ == "__main__":
    sys.exit(main())
