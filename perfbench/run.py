"""polylogvar benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload monodromy-loops|partition-lattice|cli-mix
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The program is imported from ``src/`` of the same checkout.  A run repeats
the workload's fixed operation list (a "pass") round(S / nominal pass time)
times, at least once, so the amount of work per run is the same on every
commit.  Every pass runs in a child forked from a parent that has only
imported the package, so each pass starts with cold package caches, like a
fresh CLI process; cli-mix forks once per request for the same reason.
A fixed mpmath speed probe is timed between operations and before each
set-up measurement, and pass and set-up times are reported scaled to a
reference probe time, which takes out most of the drift in the machine's
speed.
The parent is single-threaded (BLAS and OpenMP are pinned to one thread
before numpy loads), which is what makes forking it safe.

Every end-to-end metric is printed.  With ``--trace 0`` the last stdout line
is a JSON object with the bounded ones (RESULT_METRICS); with ``--trace 1``
untraced and traced passes alternate and it holds the per-layer metrics and
the tracing overhead.  Every output passes a
gate; the exit code is 1 when any operation failed, 2 when the program
cannot be found or set up.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath as mp  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 60.0
MIN_TAIL_SAMPLES = 20  # below this, "10 samples beyond" falls under the median
# A speed probe timed at this many seconds marks the reference machine speed
# to which pass times are scaled.
PROBE_REF_S = 0.05

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
# The end-to-end metrics of the result line.  The per-operation latencies are
# printed but left out: on a 2-vCPU VM single operations of monodromy-loops
# and partition-lattice varied by up to about 40 % from run to run, more than
# any bound may allow.
RESULT_METRICS = ("setup_s", "pass_s", "peak_rss_mb")


def per_layer_units():
    """Per-layer metric names, in report order, with their units."""
    units = {}
    for key in tracer.function_keys():
        units[f"{key}.calls"] = "count"
        units[f"{key}.total_s"] = "s"
        units[f"{key}.self_s"] = "s"
        units[f"{key}.errors"] = "count"
    units.update(tracer.DERIVED_UNITS)
    units["trace.overhead"] = "ratio"
    return units


# --- child processes ----------------------------------------------------------

_PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Have the kernel kill this process when its parent exits, so no child
    outlives a benchmark that is itself killed."""
    parent = os.getppid()
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before prctl took effect
        os._exit(1)


def in_child(fn, timeout=CHILD_TIMEOUT_S):
    """Run ``fn`` in a forked child and return its JSON result, or None if
    the child died or ran past ``timeout`` (it is then killed)."""
    sys.stdout.flush()
    sys.stderr.flush()
    rd, wr = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        status = 0
        try:
            die_with_parent()
            os.close(rd)
            data = json.dumps(fn()).encode()
            with os.fdopen(wr, "wb") as fh:
                fh.write(data)
        except BaseException:  # report through the exit status, then leave
            status = 1
        finally:
            os._exit(status)
    os.close(wr)
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([rd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                return None
            chunk = os.read(rd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rd)
        _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        return None
    return json.loads(b"".join(chunks))


def speed_probe():
    """Seconds taken by a fixed piece of 128-bit mpmath complex arithmetic,
    the kind of work transport does; it uses no polylogvar code."""
    t0 = time.perf_counter()
    with mp.workprec(128):
        x, y = mp.mpf(1) / 3, mp.mpc(0.3, 0.4)
        for i in range(4000):
            y = y * x + mp.mpf(1) / (i + 1)
    return time.perf_counter() - t0


def run_ops(wl, ops, tracer_obj, probe_at=(), probe_last=False):
    """Execute ops in order (inside a child); per-op latency and output, or
    the exception that op raised.  A speed probe is timed before each op
    whose index is in ``probe_at``, and after the last op if ``probe_last``."""
    if tracer_obj is not None:
        tracer_obj.reset()
    results, probes = [], []
    for i, op in enumerate(ops):
        if i in probe_at:
            probes.append(speed_probe())
        try:
            dt, out = wl.execute(op)
            results.append({"latency": dt, "output": out})
        except Exception as e:  # an op failure is a result, not a crash
            results.append({"error": f"{type(e).__name__}: {e}"})
    if probe_last:
        probes.append(speed_probe())
    snap = tracer_obj.snapshot() if tracer_obj is not None else None
    return {"results": results, "trace": snap, "probes": probes}


def run_pass(wl, ops, tracer_obj=None):
    """One pass over the op list, with a speed probe before every
    ``wl.probe_every``-th op and after the last; returns the wall time
    without the probes, per-op results, the merged trace of the pass and
    the probe times."""
    groups = [[op] for op in ops] if wl.fork_each_op else [ops]
    results, trace, probes = [], tracer.empty(), []
    start = 0
    t0 = time.perf_counter()
    for g, group in enumerate(groups):
        probe_at = {i for i in range(len(group))
                    if (start + i) % wl.probe_every == 0}
        last = g == len(groups) - 1
        start += len(group)
        payload = in_child(
            lambda: run_ops(wl, group, tracer_obj, probe_at, last))
        if payload is None:
            results += [{"error": "child process died or timed out"}] * len(group)
            continue
        results += payload["results"]
        probes += payload["probes"]
        if payload["trace"] is not None:
            tracer.merge(trace, payload["trace"])
    wall = time.perf_counter() - t0 - sum(probes)
    return wall, results, trace, probes


def gate(wl, ops, results, refs, failures):
    """Check every output; append (label, reason) for each failed op."""
    for op, res in zip(ops, results):
        reason = res.get("error")
        if reason is None:
            try:
                reason = wl.check(op, res["output"], refs)
            except Exception as e:  # a malformed output fails its gate
                reason = f"gate raised {type(e).__name__}: {e}"
        if reason is not None:
            failures.append((op["label"], reason))


# --- statistics -----------------------------------------------------------------

def tail(samples):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples for that
    percentile to lie above the median."""
    xs = sorted(samples)
    if len(xs) < MIN_TAIL_SAMPLES:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure_setup(args):
    """Median seconds from starting a fresh interpreter until it has
    imported polylogvar and built the op list, each time scaled by a speed
    probe timed just before it, as pass times are."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        scale = PROBE_REF_S / speed_probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                preexec_fn=die_with_parent)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        times.append(elapsed * scale)
    return statistics.median(times)


# --- the two kinds of run -------------------------------------------------------

def end_to_end(wl, ops, refs, passes, args):
    setup_s = measure_setup(args)
    walls, scaled, latencies, failures = [], [], [], []
    for _ in range(passes):
        wall, results, _, probes = run_pass(wl, ops)
        walls.append(wall)
        # The machine's speed drifts by up to half over minutes; the probes
        # timed between the ops follow that drift.  Their median ignores a
        # probe caught in a momentary stall.  (A pass whose children all
        # died has no probes; its ops are failures, so its time is moot.)
        probe = statistics.median(probes) if probes else PROBE_REF_S
        scaled.append(wall * PROBE_REF_S / probe)
        latencies += [r["latency"] * 1e3 for r in results if "latency" in r]
        gate(wl, ops, results, refs, failures)
    attempted = passes * len(ops)
    tail_ms, tail_pct = tail(latencies)
    pass_s = statistics.median(scaled)
    pass_note = (f"median of {passes} passes of {len(ops)} ops, scaled to a "
                 f"{PROBE_REF_S * 1e3:.0f} ms probe; unscaled median "
                 f"{statistics.median(walls):.3f}")
    metrics = {"setup_s": setup_s, "pass_s": pass_s,
               "op_p50_ms": statistics.median_low(latencies),
               "op_tail_ms": tail_ms, "peak_rss_mb": peak_rss_mb()}
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh interpreters",
             "pass_s": pass_note,
             "op_p50_ms": f"{len(latencies)} samples",
             "op_tail_ms": f"p{tail_pct:.1f} of {len(latencies)} samples",
             "peak_rss_mb": "largest process"}
    for name, unit in END_TO_END:
        print(f"{name:<12} {metrics[name]:>12.4f} {unit:<3} ({notes[name]})")
    print(f"{'fail_frac':<12} {len(failures) / attempted:>12.4f}     "
          f"({len(failures)}/{attempted} ops failed)")
    units = dict(END_TO_END)
    return attempted, failures, {k: {"value": metrics[k], "unit": units[k]}
                                 for k in RESULT_METRICS}


def traced(wl, ops, refs, passes):
    tr = tracer.Tracer()
    pairs = max(1, round(passes / 2))
    plain_walls, traced_walls, per_pass, failures, problems = [], [], [], [], []
    for _ in range(pairs):
        wall, results, _, _ = run_pass(wl, ops)
        plain_walls.append(wall)
        gate(wl, ops, results, refs, failures)
        sites = tr.install()
        try:
            wall, results, trace, _ = run_pass(wl, ops, tr)
        finally:
            tr.uninstall()
        traced_walls.append(wall)
        gate(wl, ops, results, refs, failures)
        per_pass.append(tracer.layer_metrics(trace))
        for layer in wl.layers:
            calls = sum(v for k, v in per_pass[-1].items()
                        if k.endswith(".calls") and tracer.layer_of(k) == layer)
            problem = f"layer {layer} recorded no calls"
            if calls == 0 and problem not in problems:
                problems.append(problem)
    counts = [{k: v for k, v in m.items()
               if not k.endswith(("total_s", "self_s"))} for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("work counts differ between passes: a cache "
                        "survived from one pass to the next")
    metrics = {}
    for name in per_pass[0]:
        vals = [m[name] for m in per_pass]
        metrics[name] = statistics.median(vals) if name.endswith(
            ("total_s", "self_s")) else vals[0]
    metrics["trace.overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(plain_walls))
    units = per_layer_units()
    for name, value in metrics.items():
        if value:
            print(f"{name:<48} {value:>14.6g} {units[name]}")
    print(f"patched namespaces: {sum(sites.values())} for {len(sites)} "
          f"functions; {pairs} untraced/traced pass pairs")
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)
    attempted = 2 * pairs * len(ops)
    return attempted, failures, problems, {
        name: {"value": metrics[name], "unit": units[name]} for name in units}


def run_all(args):
    """Every workload end to end and then traced, each in its own process
    so that peak memory is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            worst = max(worst, subprocess.call(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)]))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them, each followed "
                             "by its traced run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # set-up timing child
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "polylogvar" / "__init__.py").is_file():
        print(f"no polylogvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polylogvar
    if Path(polylogvar.__file__).resolve().parent != SRC / "polylogvar":
        print("polylogvar was not imported from this checkout", file=sys.stderr)
        return 2
    workloads.warm()
    wl = workloads.WORKLOADS[args.workload]()
    ops = wl.ops(args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0

    # in a child, so the parent's mpmath state stays that of a fresh import
    refs = in_child(lambda: wl.references(ops))
    if refs is None:
        print("reference computation failed", file=sys.stderr)
        return 2
    passes = max(1, round(args.seconds / wl.nominal_pass_s))
    print(f"workload {wl.name}  seed {args.seed}  {len(ops)} ops per pass  "
          f"{passes} passes  trace {args.trace}")
    problems = []
    if args.trace:
        attempted, failures, problems, metrics = traced(wl, ops, refs, passes)
    else:
        attempted, failures, metrics = end_to_end(wl, ops, refs, passes, args)
    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
