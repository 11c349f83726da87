"""The benchmark workloads: each builds a seeded operation list, runs one
operation against polylogvar, and gates its output.

A workload's ``execute`` runs in a forked child and returns the operation's
latency and a JSON-able output; ``check`` runs in the parent and returns
None when the output is right, else the reason it is not.  Gates compare
against exact values or against mpmath references computed here, never
against the package's own helpers.
"""

import contextlib
import importlib
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent

MODULES = ("analytic", "arnold", "cli", "exact", "forms", "hodge",
           "linalg_exact", "mpoly", "partitions", "paths", "poset", "report")


def warm():
    """Import polylogvar and every module a workload calls into."""
    for name in MODULES:
        importlib.import_module(f"polylogvar.{name}")


def _call(module, name, *args, **kwargs):
    """Call polylogvar.<module>.<name>, looked up at call time so that an
    installed tracer wrapper is what runs."""
    fn = getattr(importlib.import_module(f"polylogvar.{module}"), name)
    return fn(*args, **kwargs)


# --- independent reference values -------------------------------------------

def stirling1(n, k):
    """Unsigned Stirling numbers of the first kind, from the coefficients of
    x(x+1)...(x+n-1)."""
    coeffs = [1]
    for m in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] += m * c
        coeffs = nxt
    return coeffs[k] if 0 <= k < len(coeffs) else 0


def integer_partition_count(n):
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def eulerian_coeffs(r):
    """Eulerian polynomial A_r by the explicit alternating sum (A_0 = 1)."""
    if r == 0:
        return [1]
    return [sum((-1) ** j * math.comb(r + 1, j) * (m + 1 - j) ** r
                for j in range(m + 1)) for m in range(r)]


def _poly_eval(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def _eval_terms(text, point):
    """Value at ``point`` of a ' + '-joined sum of '*'-joined factors, each a
    rational number, a variable, or a variable^power (the repr format of
    the package's polynomials)."""
    total = Fraction(0)
    for term in text.split(" + "):
        val = Fraction(1)
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in point:
                val *= point[name] ** int(power or 1)
            else:
                val *= Fraction(factor)
        total += val
    return total


def _matrix_power_is_zero(N, k):
    size = len(N)
    P = [row[:] for row in N]
    for _ in range(k - 1):
        P = [[sum(P[i][m] * N[m][j] for m in range(size)) for j in range(size)]
             for i in range(size)]
    return all(v == 0 for row in P for v in row)


def _mpc(pair):
    return mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))


# --- monodromy-loops ----------------------------------------------------------

class MonodromyLoops:
    """Exact monodromy of the canonical loops at n = 1..4, plus seeded
    rectangles homotopic to them at n = 1, 2."""

    name = "monodromy-loops"
    nominal_pass_s = 20.0
    fork_each_op = False
    probe_every = 1
    layers = ("analytic", "exact", "paths")
    tol = 1e-10
    prec = 128
    variant_ns = (1, 2)

    def __init__(self):
        with open(HERE / "reference.json") as fh:
            self.reference = {
                key: [[Fraction(v) for v in row] for row in m]
                for key, m in json.load(fh)["matrices"].items()}

    @staticmethod
    def _rectangle(rng, around):
        """Corners of a counterclockwise rectangle around puncture 0 or 1,
        entered from the base point 1/2 by a vertical-ish segment; every
        edge stays at least 0.34 from both punctures.  The corners vary
        within 0.06 so that the cost of a pass hardly depends on the seed."""
        u = lambda a, b: round(rng.uniform(a, b), 3)  # noqa: E731
        y0, y1 = u(-0.53, -0.47), u(0.47, 0.53)
        if around == 1:
            x0, x1 = u(0.6, 0.66), u(1.34, 1.4)
            start = (x0, y0)
            corners = [(x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        else:
            x0, x1 = u(-0.4, -0.34), u(0.34, 0.4)
            start = (x1, y0)
            corners = [(x1, y1), (x0, y1), (x0, y0), (x1, y0)]
        return [start] + corners + [(0.5, 0.0)]

    def ops(self, seed):
        rng = random.Random(seed)
        ops = [{"label": f"loop{w} n={n}", "n": n, "loop": f"loop{w}"}
               for n in range(1, 5) for w in (0, 1)]
        for n in self.variant_ns:
            for w in (0, 1):
                ops.append({"label": f"rect{w} n={n}", "n": n,
                            "loop": f"loop{w}",
                            "corners": self._rectangle(rng, w)})
        rng.shuffle(ops)
        return ops

    def references(self, ops):
        return {}

    def execute(self, op):
        paths = importlib.import_module("polylogvar.paths")
        if "corners" in op:
            loop = paths.PathSpec(
                complex(0.5, 0.0),
                tuple(paths.LineTo(complex(x, y)) for x, y in op["corners"]),
                closed=True, name=op["label"])
        else:
            loop = paths.canonical_loop(int(op["loop"][-1]))
        t0 = time.perf_counter()
        M = _call("analytic", "monodromy", op["n"], loop, tol=self.tol,
                  prec=self.prec)
        dt = time.perf_counter() - t0
        return dt, [[str(v) for v in row] for row in M.entries]

    def check(self, op, out, refs):
        n = op["n"]
        M = [[Fraction(v) for v in row] for row in out]
        if len(M) != n + 1 or any(len(row) != n + 1 for row in M):
            return "matrix is not (n+1) x (n+1)"
        if max(v.denominator for row in M for v in row) > math.factorial(n):
            return "a denominator exceeds n!"
        N = [[M[i][j] - (i == j) for j in range(n + 1)] for i in range(n + 1)]
        if not _matrix_power_is_zero(N, n + 1):
            return "(M - I)^(n+1) is not zero"
        if M != self.reference[f"{op['loop']}/n{n}"]:
            return f"differs from the exact {op['loop']} matrix"
        return None


# --- partition-lattice --------------------------------------------------------

class PartitionLattice:
    """Every partition-lattice identity the package certifies, one operation
    per n: poset homology (3 <= n <= 6); Arnol'd dimension, character, sign
    multiplicity and induced-character identity (2 <= n <= 6); Postnikov
    identity (2 <= n <= 8).  The inputs are fixed by the identities, so the
    seed changes nothing; n ascends so that each operation finds the same
    smaller-n results cached on every run."""

    name = "partition-lattice"
    nominal_pass_s = 2.0
    fork_each_op = False
    probe_every = 1
    layers = ("linalg_exact", "poset", "arnold", "partitions")
    checks = (
        ("poset", "poset_homology", range(3, 7)),
        ("arnold", "arnold_dimension", range(2, 7)),
        ("arnold", "arnold_character", range(2, 7)),
        ("arnold", "sign_multiplicity", range(2, 7)),
        ("arnold", "induced_character_check", range(2, 7)),
        ("partitions", "postnikov_graded_check", range(2, 9)),
    )

    def ops(self, seed):
        return [{"label": f"partition identities n={n}", "n": n,
                 "calls": [(module, func) for module, func, ns in self.checks
                           if n in ns]}
                for n in range(2, 9)]

    def references(self, ops):
        return {}

    def execute(self, op):
        n = op["n"]
        t0 = time.perf_counter()
        results = [_call(module, func, n) for module, func in op["calls"]]
        dt = time.perf_counter() - t0
        out = {}
        for (_, func), r in zip(op["calls"], results):
            if func == "poset_homology":
                r = [list(p) for p in r]
            elif func == "arnold_character":
                r = [str(v) for v in r.values]
            elif func == "postnikov_graded_check":
                r = {"passed": r.passed, "table": [list(row) for row in r.table],
                     "total": r.total_matches_factorial}
            out[func] = r
        return dt, out

    def check(self, op, out, refs):
        n = op["n"]
        if sorted(out) != sorted(func for _, func in op["calls"]):
            return "missing results"
        for func, r in out.items():
            reason = self._check_one(func, n, r)
            if reason is not None:
                return f"{func}: {reason}"
        return None

    @staticmethod
    def _check_one(func, n, out):
        top = math.factorial(n - 1)
        if func == "poset_homology":
            want = [[q, top if q == n - 3 else 0] for q in range(n - 2)]
            return None if out == want else f"Betti numbers {out}"
        if func == "arnold_dimension":
            return None if out == top else f"dimension {out}"
        if func == "arnold_character":
            vals = [Fraction(v) for v in out]
            if len(vals) != integer_partition_count(n):
                return "wrong number of classes"
            if any(v.denominator != 1 for v in vals):
                return "non-integer character value"
            return None if vals[-1] == top else f"degree {vals[-1]}"
        if func == "sign_multiplicity":
            return None if out == 0 else f"sign multiplicity {out}"
        if func == "induced_character_check":
            return None if out is True else "identity fails"
        want = [[k, stirling1(n, n - k), stirling1(n, n - k)] for k in range(n)]
        if out["passed"] is not True or out["total"] is not True \
                or out["table"] != want:
            return f"table {out['table']}"
        return None


# --- cli-mix --------------------------------------------------------------------

class CliMix:
    """A seeded stream of small CLI requests, each in a fresh fork."""

    name = "cli-mix"
    nominal_pass_s = 2.0
    fork_each_op = True
    probe_every = 5
    layers = ("analytic", "exact", "hodge", "forms", "mpoly", "linalg_exact",
              "poset", "arnold", "partitions", "cli", "report")
    ref_prec = 256
    series_tol = "1e-12"
    quad_tol = "1e-8"

    @staticmethod
    def _real(rng, lo, hi):
        return f"{rng.uniform(lo, hi):.6f}"

    @staticmethod
    def _disk(rng, rmax):
        r, th = rng.uniform(0.1, rmax), rng.uniform(0, 2 * math.pi)
        return f"{r * math.cos(th):.6f},{r * math.sin(th):.6f}"

    def ops(self, seed):
        rng = random.Random(seed)
        reqs = []

        def req(cmd, **kw):
            reqs.append(dict(cmd=cmd, **kw))

        for n in range(1, 5):
            req("li", n=n, z=self._disk(rng, 0.75), tol=self.series_tol)
            req("lambda", n=n, z=self._real(rng, 0.1, 0.75), tol=self.series_tol)
            req("filtration", n=n, z=self._real(rng, 0.1, 0.75))
            req("kummer-block", n=n, z=self._real(rng, 0.1, 0.75),
                tol=self.series_tol)
            req("flatness", n=n, z=self._real(rng, 0.1, 0.75))
            req("integrate", n=n, k=rng.randint(0, n), z=self._disk(rng, 0.6),
                tol=self.quad_tol)
            req("paving", n=n, z=self._real(rng, 0.1, 0.9), samples=100000,
                seed=rng.randrange(2 ** 31))
        for n in range(1, 7):
            req("omega", n=n, k=rng.randint(0, n),
                point=[f"{rng.randint(1, 9)}/10"]
                + [f"{rng.randint(1, 9)}/11" for _ in range(n)])
        for n in range(2, 7):
            req("recurrence-check", n=n)
        req("gauge-check")
        for n in range(2, 6):
            req("postnikov", n=n)
            req("arnold", n=n)
            req("characters", n=n)
        for n in range(3, 6):
            req("poset-homology", n=n)
        precs = [128, 256] * (len(reqs) // 2 + 1)
        rng.shuffle(precs)
        for r, prec in zip(reqs, precs):
            r["precision"] = prec
        rng.shuffle(reqs)
        for r in reqs:
            argv = [r["cmd"]]
            for flag in ("n", "k", "z", "tol", "samples", "seed", "precision"):
                if flag in r:
                    argv.append(f"--{flag}={r[flag]}")  # "=" keeps "-0.5" a value
            r["argv"] = argv
            r["label"] = " ".join(argv)
        return reqs

    def references(self, ops):
        """mpmath values at ``ref_prec`` bits, as decimal strings."""
        refs = {}
        with mp.workprec(self.ref_prec):
            digits = int(self.ref_prec * 0.30103) + 5

            def s(v):
                v = mp.mpc(v)
                return [mp.nstr(v.real, digits), mp.nstr(v.imag, digits)]

            for op in ops:
                if op["cmd"] == "li":
                    refs[op["label"]] = s(mp.polylog(op["n"], _z(op["z"])))
                elif op["cmd"] == "integrate":
                    k = op["k"]
                    refs[op["label"]] = s(1 if k == 0 else
                                          mp.polylog(k, _z(op["z"])))
                elif op["cmd"] == "lambda":
                    n, z = op["n"], mp.mpf(op["z"])
                    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
                    grid = [[0] * (n + 1) for _ in range(n + 1)]
                    grid[0][0] = 1
                    for j in range(1, n + 1):
                        grid[0][j] = mp.polylog(j, z)
                    for i in range(1, n + 1):
                        for j in range(i, n + 1):
                            grid[i][j] = (two_pi_i ** i * mp.log(z) ** (j - i)
                                          / mp.factorial(j - i))
                    refs[op["label"]] = [[s(v) for v in row] for row in grid]
        return refs

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = _call("cli", "main", op["argv"])
            except SystemExit as e:  # argparse usage errors
                code = e.code if isinstance(e.code, int) else 2
        dt = time.perf_counter() - t0
        return dt, {"code": code, "stdout": out.getvalue(),
                    "stderr": err.getvalue()[-300:]}

    def check(self, op, out, refs):
        if out["code"] != 0:
            return f"exit {out['code']}: {out['stderr'].strip()}"
        rep = json.loads(out["stdout"])
        if rep["command"] != op["cmd"] or \
                rep["params"]["precision"] != op["precision"]:
            return "report does not echo the request"
        res, verdict = rep["result"], rep["verdict"]
        cmd, n = op["cmd"], op.get("n")
        with mp.workprec(self.ref_prec):
            if cmd in ("li", "integrate"):
                err = abs(_mpc(res["value"]) - _mpc(refs[op["label"]]))
                return None if err <= mp.mpf(op["tol"]) else f"error {err}"
            if cmd == "lambda":
                for row, ref_row in zip(res["matrix"], refs[op["label"]]):
                    for v, ref in zip(row, ref_row):
                        if abs(_mpc(v) - _mpc(ref)) > mp.mpf(op["tol"]):
                            return f"entry error above {op['tol']}"
                return None if len(res["matrix"]) == n + 1 else "matrix shape"
        if cmd == "omega":
            return self._check_omega(op, res)
        if verdict != "pass":
            return f"verdict {verdict}"
        top = math.factorial(n - 1) if n else None
        if cmd == "filtration":
            ok = (res["graded_dimensions"] == [[2 * k, 1] for k in range(n + 1)]
                  and res["transversal"] is True)
        elif cmd == "kummer-block":
            ok = 0 <= res["max_error"] <= float(op["tol"])
        elif cmd == "flatness":
            ok = 0 <= res["residual"] <= res["tolerance"]
        elif cmd == "recurrence-check":
            ok = res["checks"] == {f"k{k}": True for k in range(2, n + 1)}
        elif cmd == "gauge-check":
            ok = res["exact"] is True
        elif cmd == "paving":
            ok = (res["samples"] == op["samples"] and res["min_cover"] == 1
                  and res["max_cover"] == 1 and res["volume_identity"] is True)
        elif cmd == "postnikov":
            want = [{"k": k, "dimension": stirling1(n, n - k),
                     "stirling": stirling1(n, n - k)} for k in range(n)]
            ok = res["table"] == want and res["total_is_factorial"] is True
        elif cmd == "arnold":
            ok = res["dimension"] == top
        elif cmd == "poset-homology":
            ok = res["dimensions"] == [[q, top if q == n - 3 else 0]
                                       for q in range(n - 2)]
        elif cmd == "characters":
            chi = [Fraction(v) for v in res["character"]]
            ok = (res["sign_multiplicity"] == 0
                  and res["induced_identity"] is True
                  and len(chi) == integer_partition_count(n)
                  and all(v.denominator == 1 for v in chi) and chi[-1] == top)
        else:
            return f"no gate for {cmd}"
        return None if ok else f"result {res}"

    @staticmethod
    def _check_omega(op, res):
        """The printed form and Eulerian factor, evaluated exactly at the
        request's rational point, against z E_r(x) / (1-x)^(r+1)."""
        n, k = op["n"], op["k"]
        coords = [Fraction(v) for v in op["point"]]
        point = {"z": coords[0]}
        point.update({f"t{i}": coords[i] for i in range(1, n + 1)})
        x = coords[0] * math.prod(coords[1:])
        e_r = eulerian_coeffs(n - k)
        factor = _eval_terms(res["eulerian_factor"], {"x": x})
        if factor != _poly_eval(e_r, x):
            return "Eulerian factor differs"
        form = res["form"]
        head = form[:form.rindex(")") + 1]
        num, den = head[1:-1].split(") / (")
        got = _eval_terms(num, point) / _eval_terms(den, point)
        want = (Fraction(1) if k == 0 else
                coords[0] * _poly_eval(e_r, x) / (1 - x) ** (n - k + 1))
        return None if got == want else "form value differs"


def _z(text):
    parts = [mp.mpf(p) for p in text.split(",")]
    return parts[0] if len(parts) == 1 else mp.mpc(parts[0], parts[1])


WORKLOADS = {w.name: w for w in (MonodromyLoops, PartitionLattice, CliMix)}
