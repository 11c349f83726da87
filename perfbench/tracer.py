"""Per-layer call tracing, installed from outside the package.

Each traced function is replaced by a wrapper in every ``polylogvar`` module
namespace that holds it (a function imported by name into another module is
a second reference that must be patched too), and methods are replaced on
their class.  The wrapper counts calls and exceptions, accumulates wall time,
and computes self time as its own time minus the time spent in wrapped
callees.  A few wrappers also derive work counts from arguments and results.

Spans are aggregated in memory per function; nothing is written to disk.
"""

import functools
import importlib
import sys
import time

# (layer, module under polylogvar, function or Class.method)
TARGETS = (
    ("analytic", "analytic", "li_series"),
    ("analytic", "analytic", "principal_lambda"),
    ("analytic", "analytic", "transport"),
    ("analytic", "analytic", "monodromy"),
    ("exact", "exact", "rational_reconstruct"),
    ("exact", "exact", "nilpotency_index"),
    ("exact", "exact", "eulerian"),
    ("paths", "paths", "PathSpec.validate"),
    ("hodge", "hodge", "kummer_block_check"),
    ("hodge", "hodge", "flatness_residual"),
    ("hodge", "hodge", "hodge_transversality_check"),
    ("forms", "forms", "omega"),
    ("forms", "forms", "RationalForm.d_dz"),
    ("forms", "forms", "form_recurrence_check"),
    ("forms", "forms", "gauge_exactness_check"),
    ("forms", "forms", "integrate_cube"),
    ("mpoly", "mpoly", "rational_functions_equal"),
    ("linalg_exact", "linalg_exact", "sparse_rank"),
    ("linalg_exact", "linalg_exact", "sparse_rref"),
    ("poset", "poset", "poset_homology"),
    ("arnold", "arnold", "arnold_dimension"),
    ("arnold", "arnold", "arnold_character"),
    ("partitions", "partitions", "partitions_of"),
    ("partitions", "partitions", "paving_check"),
    ("partitions", "partitions", "postnikov_graded_check"),
    ("cli", "cli", "main"),
    ("report", "report", "RunReport.to_json"),
)

def _rows_nnz(rows):
    return sum(len(r) for r in rows)


def _materialized(args):
    """The row list and the call arguments, with a row iterator made a list
    so it can be counted and still be passed on."""
    rows = args[0]
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    return rows, (rows,) + tuple(args[1:])


def _count_sparse_rank(counts, args, kwargs, call):
    rows, args = _materialized(args)
    counts["linalg_exact.sparse_rank.rows"] += len(rows)
    counts["linalg_exact.sparse_rank.nnz_in"] += _rows_nnz(rows)
    rank = call(args, kwargs)
    counts["linalg_exact.sparse_rank.rank"] += rank
    return rank


def _count_sparse_rref(counts, args, kwargs, call):
    rows, args = _materialized(args)
    counts["linalg_exact.sparse_rref.nnz_in"] += _rows_nnz(rows)
    pivots = call(args, kwargs)
    counts["linalg_exact.sparse_rref.nnz_out"] += _rows_nnz(pivots.values())
    return pivots


def _count_paving(counts, args, kwargs, call):
    rep = call(args, kwargs)
    counts["partitions.paving_check.redraws"] += rep.redraws
    counts["partitions.paving_check.samples"] += rep.samples
    return rep


def _count_to_json(counts, args, kwargs, call):
    text = call(args, kwargs)
    counts["report.RunReport.to_json.bytes"] += len(text.encode())
    return text


# function key -> counter that makes the call itself and tallies around it
COUNTERS = {
    "linalg_exact.sparse_rank": _count_sparse_rank,
    "linalg_exact.sparse_rref": _count_sparse_rref,
    "partitions.paving_check": _count_paving,
    "report.RunReport.to_json": _count_to_json,
}

RAW_COUNTS = (
    "linalg_exact.sparse_rank.rows", "linalg_exact.sparse_rank.nnz_in",
    "linalg_exact.sparse_rank.rank", "linalg_exact.sparse_rref.nnz_in",
    "linalg_exact.sparse_rref.nnz_out", "partitions.paving_check.redraws",
    "partitions.paving_check.samples", "report.RunReport.to_json.bytes",
)

# per-layer metrics derived from the counts, with their units
DERIVED_UNITS = {
    "linalg_exact.sparse_rank.rows": "count",
    "linalg_exact.sparse_rank.nnz_in": "count",
    "linalg_exact.sparse_rank.rank": "count",
    "linalg_exact.sparse_rref.nnz_in": "count",
    "linalg_exact.sparse_rref.nnz_out": "count",
    "linalg_exact.sparse_rref.fill_ratio": "ratio",
    "partitions.paving_check.redraw_ratio": "ratio",
    "report.RunReport.to_json.bytes": "bytes",
}


def function_keys():
    return [f"{layer}.{qualname}" for layer, _, qualname in TARGETS]


def layer_of(key):
    return key.split(".", 1)[0]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polylogvar"
                                  or name.startswith("polylogvar."))]


class Tracer:
    """Wraps the TARGETS functions while installed; ``snapshot`` returns the
    totals since the last ``reset``."""

    def __init__(self):
        # the wrappers hold these objects, so reset() clears them in place
        self.stats = {key: [0, 0.0, 0.0, 0] for key in function_keys()}
        self.counts = dict.fromkeys(RAW_COUNTS, 0)
        self._stack = []
        self._undo = []

    def reset(self):
        for st in self.stats.values():
            st[:] = (0, 0.0, 0.0, 0)
        for name in self.counts:
            self.counts[name] = 0
        self._stack.clear()

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def _wrap(self, key, fn):
        stats = self.stats
        stack = self._stack
        counter = COUNTERS.get(key)
        counts = self.counts

        def call(args, kwargs):
            return fn(*args, **kwargs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            failed = False
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                return counter(counts, args, kwargs, call)
            except Exception:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                st = stats[key]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[0]
                st[3] += failed
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self):
        """Patch every target; returns the number of namespaces patched per
        function.  Raises if a target cannot be found, so a rename in the
        package fails the traced run instead of tracing nothing."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        sites = {}
        for layer, module, qualname in TARGETS:
            key = f"{layer}.{qualname}"
            mod = importlib.import_module(f"polylogvar.{module}")
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(key, orig))
                sites[key] = 1
                continue
            orig = getattr(mod, qualname)
            wrapper = self._wrap(key, orig)
            n = 0
            for m in _package_modules():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, orig, wrapper)
                        n += 1
            sites[key] = n
        return sites

    def _set(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []


def merge(total, snap):
    """Add one snapshot into an accumulator of the same shape."""
    for k, v in snap["stats"].items():
        acc = total["stats"].setdefault(k, [0, 0.0, 0.0, 0])
        for i in range(4):
            acc[i] += v[i]
    for k, v in snap["counts"].items():
        total["counts"][k] = total["counts"].get(k, 0) + v
    return total


def empty():
    return {"stats": {}, "counts": {}}


def layer_metrics(snap):
    """Per-layer metric values of one traced pass, by metric name."""
    out = {}
    for key in function_keys():
        calls, total, self_s, errors = snap["stats"].get(key, [0, 0.0, 0.0, 0])
        out[f"{key}.calls"] = calls
        out[f"{key}.total_s"] = total
        out[f"{key}.self_s"] = self_s
        out[f"{key}.errors"] = errors
    c = snap["counts"]
    for name in DERIVED_UNITS:
        if name in RAW_COUNTS:
            out[name] = c.get(name, 0)
    nnz_in = c.get("linalg_exact.sparse_rref.nnz_in", 0)
    out["linalg_exact.sparse_rref.fill_ratio"] = (
        c.get("linalg_exact.sparse_rref.nnz_out", 0) / nnz_in if nnz_in else 0.0)
    samples = c.get("partitions.paving_check.samples", 0)
    out["partitions.paving_check.redraw_ratio"] = (
        c.get("partitions.paving_check.redraws", 0) / samples if samples else 0.0)
    return out
