"""Tests of the benchmark itself: span arithmetic, inputs, error counting,
tracing that leaves answers and the library untouched, and the run contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def spans(rows):
    """Span arrays from (name, parent, op, start, end, size) rows."""
    cols = list(zip(*rows))
    return {
        "name": np.array(cols[0], dtype=np.int32),
        "parent": np.array(cols[1], dtype=np.int32),
        "op": np.array(cols[2], dtype=np.int32),
        "start": np.array(cols[3], dtype=np.float64),
        "end": np.array(cols[4], dtype=np.float64),
        "size": np.array(cols[5], dtype=np.int64),
    }


def test_self_time_subtracts_direct_children_only():
    s = spans([
        (0, -1, 0, 0.0, 10.0, 0),  # op
        (1, 0, 0, 1.0, 4.0, 0),  # child of the op
        (2, 1, 0, 2.0, 3.0, 0),  # grandchild
        (1, 0, 0, 5.0, 9.0, 0),  # second child
    ])
    assert tracing.self_times(s["parent"], s["start"], s["end"]).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_per_op_misses_and_outside_spans():
    names = ["bench.op", "matching.nu", "matching.maximum_matching", "ideals.power"]
    s = spans([
        (0, -1, 0, 0.0, 4.0, 0),
        (1, 0, 0, 0.5, 2.5, 0),  # nu that misses
        (2, 1, 0, 1.0, 2.0, 7),  # its blossom on 7 clones
        (1, 0, 0, 3.0, 3.5, 0),  # nu that hits
        (0, -1, 1, 5.0, 6.0, 0),
        (1, 4, 1, 5.0, 5.5, 0),  # nu that hits
        (3, -1, -1, 7.0, 9.0, 3),  # outside every op: not counted
    ])
    m = tracing.layer_metrics(names, s)
    assert m["trace.ops"] == 2
    assert m["matching.nu.calls"] == pytest.approx(1.5)
    assert m["matching.nu.miss_ratio"] == pytest.approx(1 / 3)
    assert m["matching.nu.self_s"] == pytest.approx((1.0 + 0.5 + 0.5) / 2)
    assert m["matching.blowup_clones.max"] == 7
    assert m["matching.blowup_clones.sum"] == pytest.approx(3.5)
    assert m["layer.matching.self_s"] == pytest.approx((2.0 + 1.0) / 2)
    assert m["layer.bench.self_s"] == pytest.approx((1.5 + 0.5) / 2)
    assert m["ideals.power.calls"] == 0 and m["layer.ideals.self_s"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name].make_inputs
    first, again, other = make(7), make(7), make(8)
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(other)


def collect(workload, items, tracer=None):
    reports = []
    worker.run_ops(workload, items, 1e9, tracer, reports.append)
    return reports


def as_child(reports):
    child = run.ChildRun()
    for msg in reports + [{"done": {}}]:
        child.take(msg)
    child.returncode = 0
    return child


def test_wrong_and_raising_answers_count_as_failed():
    from edgesat import census

    calls = []

    def fake_engine(g, t):
        calls.append(g)
        if len(calls) % 3 == 0:
            return {"edges": sorted(g.edges), "expected": [], "got": [[1]]}
        if len(calls) == 4:
            raise RuntimeError("engine crashed")
        return census.check_graph(g, t)

    items = workloads.census_inputs(1)[:9]
    attempted, failed, errors = run.tally(as_child(collect(workloads.Census(fake_engine), items)))
    assert (attempted, failed) == (9, 4)
    assert any("engine crashed" in e for e in errors)
    assert run.tally(as_child(collect(workloads.Census(), items)))[:2] == (9, 0)


def test_cut_off_op_counts_as_failed():
    script = (
        "import json, time\n"
        "print(json.dumps({'ready': {}}), flush=True)\n"
        "print(json.dumps({'op': 0, 's': 0.01, 'answer': 'x', 'error': None}), flush=True)\n"
        "print(json.dumps({'op': 1, 's': 0.01, 'answer': 'y', 'error': None}), flush=True)\n"
        "print(json.dumps({'rss_mb': 1.0}), flush=True)\n"
        "print(json.dumps({'check': 0, 'error': None}), flush=True)\n"
        "time.sleep(60)\n"
    )
    child = run.run_child([sys.executable, "-c", script], cap_s=3.0)
    assert child.cut_off and child.returncode != 0
    assert run.tally(child)[:2] == (2, 1)  # op 1 was cut off before its check
    child.rss_mb = None  # as if cut off inside the timed loop, during op 2
    assert run.tally(child)[:2] == (3, 2)


def test_latencies_scale_with_the_reference_speed(monkeypatch):
    class Sleepy:
        def run(self, item):
            time.sleep(0.01)

        def check(self, item, answer):
            return None

    def run_at(ref_s, seconds):
        monkeypatch.setattr(worker, "reference_loop", lambda: ref_s)
        reports = []
        worker.run_ops(Sleepy(), range(1000), seconds, None, reports.append)
        return [r for r in reports if "op" in r]

    ops = run_at(2 * worker.REF_S, 0.03)  # the machine runs at half the reference speed
    for o in ops:
        assert o["scaled"] == pytest.approx(o["s"] / 2)
    # the wall clock stops the loop before the scaled time reaches its budget
    wall = [o["s"] for o in ops]
    assert sum(wall[:-1]) < worker.MAX_WALL_SHARE * 0.03 <= sum(wall)
    # at twice the reference speed, the scaled time stops it
    scaled = [o["scaled"] for o in run_at(worker.REF_S / 2, 0.05)]
    assert sum(scaled[:-1]) < 0.05 <= sum(scaled)


def test_tail_is_the_eleventh_largest():
    latencies = [float(i) for i in range(1, 101)]
    assert run.tail(latencies) == (90.0, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def bindings():
    return {
        (mod.__name__, attr): value
        for mod in tracing._namespaces()
        for attr, value in vars(mod).items()
        if tracing._traceable(value) or hasattr(value, "__wrapped__")
    }


@pytest.mark.parametrize("name,picks", [
    ("census", [0, 1, 2]),
    ("ass", [0, 2, 3]),  # G10 at t=3, then a random graph at t=3 and t=4
    ("membership", [0, 1]),
])
def test_traced_answers_equal_untraced_and_wrappers_are_removed(name, picks):
    import edgesat.cli  # noqa: F401  (bind every module, as a run does)

    w = workloads.WORKLOADS[name]()
    items = [w.make_inputs(3)[i] for i in picks]
    before = bindings()
    plain = collect(w, items)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = collect(w, items, tracer)
    finally:
        tracer.uninstall()
    assert bindings() == before
    def answers(reports):
        return [r["answer"] for r in reports if "op" in r]

    assert answers(traced) == answers(plain)
    assert run.tally(as_child(plain))[:2] == run.tally(as_child(traced))[:2] == (len(items), 0)
    m = tracing.layer_metrics(tracer.names, tracer.arrays())
    assert m["trace.ops"] == len(items)
    if name != "census":
        # nu is called through the names saturation and assoc import
        assert m["matching.nu.calls"] > 0


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_the_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ass", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    import compare

    metric = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
    parent = [10.0 + 0.1 * i for i in range(10)]

    def judge(change):
        wins = sum(c < p for p, c in zip(parent, change))
        return compare.verdict(metric, parent, change, wins, len(change))

    assert judge([x - 2.0 for x in parent]) == "GAIN"
    assert judge([x + 2.0 for x in parent]) == "REGRESSION"
    assert judge([x - 0.05 for x in parent]) == "same"  # wins every pair, gap within the spread
    assert judge([x - 2.0 for x in parent[:9]] + [parent[9] + 1.0]) == "GAIN"  # 9 of 10
    assert judge([x - 2.0 for x in parent[:8]] + parent[8:]) != "GAIN"  # 8 of 10
    assert judge([x - 2.0 for x in parent[:9]]) == "same"  # fewer than 10 pairs
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(metric, noisy, noisy, 0, 10) == "unresolved"
