"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
workloads.warm()

HERE = Path(__file__).resolve().parent
RUN = str(HERE / "run.py")

# counts that must come out identical from two traced runs on one seed
EXACT_SUFFIXES = (".calls", ".rows", ".nnz_in", ".nnz_out", ".rank",
                  ".fill_ratio", ".redraw_ratio", ".bytes")


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["partition-lattice", "cli-mix"])
def test_counts_repeat_exactly(workload):
    first, second = _traced_run(workload, 7), _traced_run(workload, 7)
    exact = [k for k in first if k.endswith(EXACT_SUFFIXES)]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["linalg_exact.sparse_rank.calls"] > 0


def _sparse_rank_work(metrics):
    return (metrics["linalg_exact.sparse_rank.calls"],
            metrics["linalg_exact.sparse_rank.rows"])


def test_second_pass_starts_with_cold_caches():
    wl = workloads.PartitionLattice()
    ops = wl.ops(1)
    tr = tracer.Tracer()
    tr.install()
    try:
        first = tracer.layer_metrics(run.run_pass(wl, ops, tr)[2])
        second = tracer.layer_metrics(run.run_pass(wl, ops, tr)[2])
    finally:
        tr.uninstall()
    assert _sparse_rank_work(first) == _sparse_rank_work(second)
    assert first["linalg_exact.sparse_rank.rows"] > 0


def test_cache_reuse_would_be_detected():
    """Control for the test above: two passes in one process do less
    elimination the second time, because the memo caches are warm."""
    wl = workloads.PartitionLattice()
    ops = wl.ops(1)
    tr = tracer.Tracer()

    def two_passes_in_one_child():
        return [tracer.layer_metrics(run.run_ops(wl, ops, tr)["trace"])
                for _ in range(2)]

    tr.install()
    try:
        first, second = run.in_child(two_passes_in_one_child)
    finally:
        tr.uninstall()
    assert _sparse_rank_work(second)[1] < _sparse_rank_work(first)[1]


class _ProbedStub:
    """A workload whose operations do nothing."""
    fork_each_op = False
    probe_every = 1

    def execute(self, op):
        return 0.0, op["label"]


def test_probe_time_is_left_out_of_the_pass():
    ops = [{"label": str(i)} for i in range(3)]
    wall, results, _, probes = run.run_pass(_ProbedStub(), ops)
    assert [r["output"] for r in results] == ["0", "1", "2"]
    assert len(probes) == len(ops) + 1 and min(probes) > 0
    assert 0 <= wall < sum(probes)


def test_wrappers_reach_every_importing_namespace():
    import polylogvar.acceptance as acceptance
    import polylogvar.arnold as arnold
    import polylogvar.cli as cli
    import polylogvar.hodge as hodge
    import polylogvar.poset as poset
    rank, mono = poset.sparse_rank, cli.monodromy
    tr = tracer.Tracer()
    tr.install()
    try:
        assert poset.sparse_rank is arnold.sparse_rank
        assert poset.sparse_rank is not rank
        assert acceptance.monodromy is cli.monodromy is hodge.monodromy
        assert cli.monodromy is not mono
    finally:
        tr.uninstall()
    assert poset.sparse_rank is rank and arnold.sparse_rank is rank
    assert cli.monodromy is mono and hodge.monodromy is mono


def test_metric_names_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = dict(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, units[name]) for name in run.RESULT_METRICS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_tail_percentile_rule():
    assert run.tail(list(range(12))) == (11, 100.0)
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(1 for x in range(100) if x > value) == 10


def test_gates_reject_wrong_outputs():
    mono = workloads.MonodromyLoops()
    op = {"label": "loop1 n=2", "n": 2, "loop": "loop1"}
    good = [["1", "-1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert mono.check(op, good, {}) is None
    assert mono.check(op, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                      {}) is not None
    assert mono.check(op, [["1", "-1/3", "0"], ["0", "1", "0"],
                           ["0", "0", "1"]], {}) is not None

    lattice = workloads.PartitionLattice()
    op = {"label": "n=5", "n": 5, "calls": [("poset", "poset_homology"),
                                           ("arnold", "sign_multiplicity")]}
    good = {"poset_homology": [[0, 0], [1, 0], [2, 24]],
            "sign_multiplicity": 0}
    assert lattice.check(op, good, {}) is None
    assert lattice.check(op, dict(good, sign_multiplicity=1), {}) is not None
    assert lattice.check(op, dict(good, poset_homology=[[0, 0], [1, 1],
                                                        [2, 24]]), {}) \
        is not None
    assert lattice.check(op, {"sign_multiplicity": 0}, {}) is not None

    mix = workloads.CliMix()
    op = {"label": "arnold --n=4", "cmd": "arnold", "n": 4, "precision": 128}
    report = {"command": "arnold", "params": {"precision": 128},
              "result": {"dimension": 6, "factorial": 6}, "verdict": "pass"}
    out = {"code": 0, "stdout": json.dumps(report), "stderr": ""}
    assert mix.check(op, out, {}) is None
    report["result"]["dimension"] = 5
    assert mix.check(op, dict(out, stdout=json.dumps(report)), {}) is not None
    assert mix.check(op, dict(out, code=3), {}) is not None


def test_omega_gate_evaluates_the_printed_form():
    mix = workloads.CliMix()
    op = {"label": "omega", "cmd": "omega", "n": 2, "k": 1, "precision": 128,
          "point": ["1/2", "1/3", "2/3"]}
    assert workloads.eulerian_coeffs(1) == [1]
    assert workloads.eulerian_coeffs(3) == [1, 4, 1]
    good = {"form": "(1*z) / (1 + -2*z*t1*t2 + 1*z^2*t1^2*t2^2) dt1 dt2",
            "eulerian_factor": "1"}
    assert mix._check_omega(op, good) is None
    bad = dict(good, form="(1*z) / (1 + -1*z*t1*t2) dt1 dt2")
    assert mix._check_omega(op, bad) is not None


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
