"""Command-line front end.

Every subcommand validates its flags, runs one library operation, and writes
a RunReport to stdout as JSON (or CSV with --format csv).  Exit codes:
0 success, 1 suite failure, 2 usage error, 3 domain error, 4 numerical
failure (reconstruction or integration).

--precision sets the accuracy of every series value, period matrix and
transport; --tol never enters them.  --tol only sets the bounds that decide a
certificate or a verdict: the reconstruction tolerance of monodromy
(100 * tol), the entrywise bound of kummer-block and the quadrature target of
integrate.
"""

import argparse
import json
import math
import sys
import time

import mpmath as mp

from . import acceptance
from .analytic import li_series, monodromy, principal_lambda, transport
from .arnold import (arnold_character, arnold_dimension,
                     induced_character_check, integer_partitions,
                     sign_multiplicity)
from .errors import DomainError, IntegrationError, PathError, ReconstructionError
from .exact import eulerian
from .forms import form_recurrence_check, gauge_exactness_check, integrate_cube, omega
from .hodge import (FilteredFiber, flatness_residual, graded_dimensions,
                    hodge_transversality_check, kummer_block_check)
from .partitions import paving_check, postnikov_graded_check
from .paths import PathSpec, canonical_loop
from .poset import poset_homology
from .report import RunReport


# Largest --n for the commands that build (n+1) x (n+1) period matrices of
# mpmath complex numbers, and for li, which sums the whole row Li_1..Li_n;
# bounds their memory and time.
MAX_MATRIX_N = 64
_MATRIX_COMMANDS = ("li", "lambda", "transport", "monodromy", "filtration",
                    "kummer-block", "flatness")
# Largest --precision in bits; mpmath's cost grows faster than linearly in it.
MAX_PRECISION = 4096
# Largest --samples for paving, whose memory grows with samples * n floats.
MAX_SAMPLES = 10 ** 6


def _parse_z(text):
    """Validate the 're[,im]' shape; defer numeric parsing to _z_value so the
    value is read at the command's working precision, not the default one."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError("z must be 're' or 're,im'")
    try:
        for p in parts:
            mp.mpf(p.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad z component: {e}") from e
    return text


def _z_value(args):
    parts = args.z.split(",")
    with mp.workprec(args.precision):
        if len(parts) == 1:
            return mp.mpf(parts[0].strip())
        return mp.mpc(mp.mpf(parts[0].strip()), mp.mpf(parts[1].strip()))


def _resolve_loop(name_or_path):
    if name_or_path == "loop0":
        return canonical_loop(0)
    if name_or_path == "loop1":
        return canonical_loop(1)
    with open(name_or_path) as fh:
        return PathSpec.from_json_dict(json.load(fh), name=name_or_path)


def _matrix_result(entries):
    return [[v for v in row] for row in entries]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polylogvar",
        description="Polylogarithm transport, monodromy, de Rham and "
                    "partition-lattice checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-12,
                        help="tolerance of the monodromy certificate, "
                             "kummer-block and integrate (default 1e-12); "
                             "the accuracy of series, matrices and transport "
                             "follows --precision alone")
    common.add_argument("--precision", type=int, default=128,
                        help="working precision in bits (default 128)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks (default 0)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--timing", action="store_true",
                        help="include wall time in the report (breaks byte "
                             "reproducibility)")

    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = cmd("li", help="evaluate the polylogarithm series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_parse_z, required=True)

    p = cmd("lambda", help="principal fundamental solution matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_parse_z, required=True)

    p = cmd("transport", help="continue the principal solution along a path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--loop", required=True,
                   help="loop0, loop1, or a path JSON file")

    p = cmd("monodromy", help="exact monodromy matrix of a closed loop")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--loop", required=True)
    p.add_argument("--max-den", type=int, default=None,
                   help="denominator bound (default n!)")

    p = cmd("flatness", help="finite-difference check of the connection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_parse_z, default="0.5")

    p = cmd("filtration", help="weight graded dimensions and transversality")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_parse_z, required=True)

    p = cmd("kummer-block", help="divided-power symmetric-power block check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_parse_z, required=True)

    p = cmd("omega", help="print a de Rham basis form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = cmd("integrate", help="cube integral of a basis form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=_parse_z, required=True)

    cmd("gauge-check", help="exactness of the weight-one gauge identity")

    p = cmd("recurrence-check", help="exact z-derivative recurrence of the forms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = cmd("arnold", help="dimension of the top Arnol'd component")
    p.add_argument("--n", type=int, required=True)

    p = cmd("poset-homology", help="reduced homology of the partition poset")
    p.add_argument("--n", type=int, required=True)

    p = cmd("characters", help="Arnol'd character, sign multiplicity, induction")
    p.add_argument("--n", type=int, required=True)

    p = cmd("postnikov", help="graded dimension identity against Stirling numbers")
    p.add_argument("--n", type=int, required=True)

    p = cmd("paving", help="simplex paving of the rescaled cube")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_parse_z, required=True)
    p.add_argument("--samples", type=int, default=10000)

    cmd("suite", help="run the full acceptance battery")

    return parser


def _validate(args):
    if getattr(args, "tol", 1e-12) <= 0:
        raise DomainError("--tol must be positive")
    if getattr(args, "precision", 128) < 64:
        raise DomainError("--precision must be at least 64 bits")
    if getattr(args, "precision", 128) > MAX_PRECISION:
        raise DomainError(f"--precision must be at most {MAX_PRECISION} bits")
    if getattr(args, "samples", 1) < 1:
        raise DomainError("--samples must be positive")
    if getattr(args, "samples", 1) > MAX_SAMPLES:
        raise DomainError(f"--samples must be at most {MAX_SAMPLES}")
    max_den = getattr(args, "max_den", None)
    if max_den is not None and max_den < 1:
        raise DomainError("--max-den must be at least 1")
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        raise DomainError("--n must be nonnegative")
    if args.command in _MATRIX_COMMANDS and n > MAX_MATRIX_N:
        raise DomainError(f"--n must be at most {MAX_MATRIX_N} for "
                          f"{args.command}")


def _run(args):
    """Dispatch; returns (result, verdict)."""
    c = args.command
    if c == "li":
        z = _z_value(args)
        return {"value": li_series(args.n, z, prec=args.precision)}, None
    if c == "lambda":
        z = _z_value(args)
        lam = principal_lambda(args.n, z, prec=args.precision)
        return {"matrix": _matrix_result(lam.entries),
                "branch_tag": lam.branch_tag}, None
    if c == "transport":
        loop = _resolve_loop(args.loop)
        base = loop.base_point
        if base.imag != 0 or not 0 < base.real < 1:
            raise DomainError("path base point must be real in (0, 1)")
        start = principal_lambda(args.n, base.real, prec=args.precision)
        moved = transport(args.n, loop, start, prec=args.precision)
        return {"matrix": _matrix_result(moved.entries),
                "branch_tag": moved.branch_tag}, None
    if c == "monodromy":
        loop = _resolve_loop(args.loop)
        M = monodromy(args.n, loop, tol=args.tol, prec=args.precision,
                      max_den=args.max_den)
        return {"matrix": [[v for v in row] for row in M.entries]}, None
    if c == "flatness":
        z = _z_value(args)
        resid = flatness_residual(args.n, z, prec=args.precision)
        return ({"residual": resid, "h": 1e-6, "tolerance": 1e-4},
                "pass" if resid <= 1e-4 else "fail")
    if c == "filtration":
        z = _z_value(args)
        lam = principal_lambda(args.n, z, prec=args.precision)
        fib = FilteredFiber.from_period_matrix(lam)
        graded = graded_dimensions(fib)
        rep = hodge_transversality_check(fib)
        return ({"graded_dimensions": [list(p) for p in graded],
                 "transversal": rep.passed,
                 "failures": [list(f) for f in rep.failures]},
                "pass" if rep.passed else "fail")
    if c == "kummer-block":
        z = _z_value(args)
        rep = kummer_block_check(args.n, z, tol=args.tol, prec=args.precision)
        return ({"max_error": rep.max_error, "failing_entry":
                 list(rep.failing_entry) if rep.failing_entry else None},
                "pass" if rep.passed else "fail")
    if c == "omega":
        return {"form": repr(omega(args.n, args.k)),
                "eulerian_factor": repr(eulerian(max(args.n - args.k, 0)))}, None
    if c == "integrate":
        z = _z_value(args)
        return {"value": integrate_cube(args.n, args.k, z, args.tol)}, None
    if c == "gauge-check":
        ok = gauge_exactness_check()
        return {"exact": ok}, "pass" if ok else "fail"
    if c == "recurrence-check":
        ks = [args.k] if args.k is not None else list(range(2, args.n + 1))
        results = {f"k{k}": form_recurrence_check(args.n, k) for k in ks}
        ok = all(results.values())
        return {"checks": results}, "pass" if ok else "fail"
    if c == "arnold":
        d = arnold_dimension(args.n)
        expected = math.factorial(args.n - 1)
        return ({"dimension": d, "factorial": expected},
                "pass" if d == expected else "fail")
    if c == "poset-homology":
        hom = poset_homology(args.n)
        top = args.n - 3
        ok = all(d == 0 for q, d in hom if q != top) and \
            dict(hom).get(top) == math.factorial(args.n - 1)
        return ({"dimensions": [list(p) for p in hom]},
                "pass" if ok else "fail")
    if c == "characters":
        chi = arnold_character(args.n)
        classes = ["+".join(map(str, lam)) for lam in integer_partitions(args.n)]
        s = sign_multiplicity(args.n)
        ind = induced_character_check(args.n)
        ok = s == 0 and ind
        return ({"classes": classes,
                 "character": [v for v in chi.values],
                 "sign_multiplicity": s,
                 "induced_identity": ind},
                "pass" if ok else "fail")
    if c == "postnikov":
        rep = postnikov_graded_check(args.n)
        return ({"table": [{"k": k, "dimension": s, "stirling": c0}
                           for k, s, c0 in rep.table],
                 "total_is_factorial": rep.total_matches_factorial},
                "pass" if rep.passed else "fail")
    if c == "paving":
        if "," in args.z:
            raise DomainError("paving needs real z in (0, 1)")
        rep = paving_check(args.n, args.z.strip(), args.samples, args.seed)
        return ({"samples": rep.samples, "redraws": rep.redraws,
                 "min_cover": rep.min_cover, "max_cover": rep.max_cover,
                 "volume_identity": rep.volume_identity_ok},
                "pass" if rep.passed else "fail")
    if c == "suite":
        results = acceptance.run_battery(seed=args.seed)
        ok = all(r.passed for r in results)
        return ({"criteria": [{"number": r.number, "name": r.name,
                               "passed": r.passed, "details": r.details}
                              for r in results]},
                "pass" if ok else "fail")
    raise DomainError(f"unknown command {c}")


def _params_echo(args):
    skip = {"command", "format", "timing"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        out[k] = v
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        t0 = time.perf_counter()
        result, verdict = _run(args)
        elapsed = (time.perf_counter() - t0) * 1000.0
    except (DomainError, PathError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3
    except (IntegrationError, ReconstructionError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except (FileNotFoundError, json.JSONDecodeError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    report = RunReport(command=args.command, params=_params_echo(args),
                       result=result, verdict=verdict,
                       elapsed_ms=elapsed if args.timing else None)
    text = report.to_json(args.precision) if args.format == "json" \
        else report.to_csv(args.precision)
    print(text)
    if args.command == "suite" and verdict != "pass":
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
