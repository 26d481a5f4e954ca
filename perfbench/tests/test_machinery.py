"""Tests of the benchmark's own machinery: spans, the tail rule, tiny runs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from pairsketch import bhm, sketch  # noqa: E402


def test_self_times_of_a_hand_built_tree():
    #  0 [0, 10]
    #  +- 1 [1, 4]
    #  |  +- 3 [2, 3]
    #  +- 2 [5, 9]
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 9.0, 3.0])
    parent = np.array([-1, 0, 0, 1])
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_traced_self_times_add_up_to_the_root():
    tracer = spans.Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle(x):
        return traced_leaf(x) + traced_leaf(2 * x)

    traced_middle = tracer.wrap("middle", middle)

    def root():
        return traced_middle(20_000) + traced_leaf(5_000) + traced_middle(1_000)

    tracer.wrap("root", root)()
    arr = tracer.arrays()
    selft = spans.self_times(arr["start"], arr["end"], arr["parent"])
    roots = arr["parent"] == -1
    assert roots.sum() == 1
    root_duration = float((arr["end"] - arr["start"])[roots][0])
    assert selft.sum() == pytest.approx(root_duration, rel=1e-9, abs=1e-12)
    assert (selft >= 0).all()
    assert [tracer.names[i] for i in arr["name_id"]] == [
        "root", "middle", "leaf", "leaf", "leaf", "middle", "leaf", "leaf"
    ]
    assert tracer.counts["leaf.calls"] == 5


@pytest.mark.parametrize(
    "samples, value, percentile",
    [
        (list(range(1, 12)), 1, 100 / 11),  # 11 samples: the minimum has ten above it
        (list(range(1, 21)), 10, 50.0),
        (list(range(100, 0, -1)), 90, 90.0),  # order does not matter
        (list(range(1, 1001)), 990, 99.0),
        ([5] * 8 + [7] * 12, 7, 50.0),  # ties count by rank
    ],
)
def test_tail_rule(samples, value, percentile):
    assert metrics.tail(samples) == (value, pytest.approx(percentile))


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        metrics.tail(list(range(10)))


TINY = {
    "estimators": dict(
        workloads.PARAMS["estimators"],
        snapshot=dict(workloads.PARAMS["estimators"]["snapshot"], m=12, experiment_m=6,
                      trials=3000, live_copies=4, probe_runs=1),
        bhm_n=64, live_bhm_n=64, bhm_trials=4000, bhm_meta_trials=50,
        heavy_n=20, heavy_m=60, live_heavy_n=20, live_heavy_m=60, heavy_trials=4000,
        triangle_n=30, triangle_p=0.3, triangle_trials=2000,
        live_triangle_n=12, live_triangle_p=0.5, live_copies=4,
    ),
    "small-sketches": dict(
        workloads.PARAMS["small-sketches"], scripts=2, handles_per_script=10,
        equivalence_universe=6, equivalence_max_size=2, equivalence_max_len=4,
        probe_creates=5,
    ),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run(name, tmp_path):
    wl = workloads.build(name, 3, tmp_path, TINY[name])
    out = worker.execute(wl, 0, trace=True)
    assert out["failures"] == []
    layers = {metric: value for metric, (value, _) in out["layers"].items()}
    assert set(layers) == set(metrics.UNITS)
    ops = wl.ops
    experiments = {op.label: 0 for op in ops}
    for op in ops:
        experiments[op.label] += op.kind == "experiment"
    live = sum(op.copies for op in ops if op.kind == "live")
    assert layers["sketch.create.calls"] == live
    assert layers["bhm.terminal_slabs.calls"] == 3 * experiments.get("bhm", 0)
    assert layers["heavy_edges.terminal_law.calls"] == 2 * experiments.get("heavy", 0)
    if name != "small-sketches":
        assert layers["qsim.enumerate.calls"] == 0
        assert layers["qsim.enumerate.quantum.s"] == 0
    else:
        assert layers["qsim.enumerate.calls"] > 0
    for metric, (home, _, _) in metrics.BASELINES.items():
        assert (layers[metric] > 0) == (home == name), metric
    # the tracer is gone again
    assert bhm.create is sketch.create and not hasattr(sketch.create, "__wrapped__")
    assert not hasattr(sketch.SketchHandle.query_pair, "__wrapped__")

    again = worker.execute(workloads.build(name, 3, tmp_path, TINY[name]), 0, trace=True)
    counts = [m for m, unit in metrics.UNITS.items() if unit in ("count", "bytes")]
    assert {m: again["layers"][m][0] for m in counts} == {m: layers[m] for m in counts}
    assert again["digests"] == out["digests"]


def test_a_failed_check_is_reported():
    ops = [workloads.Op("live", "toy", "toy live runs", lambda h: h, copies=4,
                        check=lambda out: None if out != 2 else "two")]
    _, results = worker.run_round(ops)
    failures, _ = worker.check_round(ops, results)
    assert failures == [("toy live runs, copy 2", "two")]


def test_rounds_report_their_fastest_copy_and_must_agree():
    calls = []

    def run(h):
        calls.append(h)
        return len(calls) > 6 and h == 1  # the second round's copy 1 differs

    ops = [workloads.Op("live", "toy", "toy live runs", run, copies=12)]
    first = worker.run_round(ops)[1]
    second = worker.run_round(ops)[1]
    assert worker.compare_rounds(ops, first, first, "same") == []
    assert worker.compare_rounds(ops, first, second, "later") == [
        ("toy live runs", "later output differs from the first round")
    ]
    first[0][0][3] = 9.0
    second[0][0][3] = 2.0
    summary = worker.summarize(ops, [10.0, 12.0], [first, second])
    best = [min(a, b) for a, b in zip(first[0][0], second[0][0])]
    assert best[3] == 2.0
    assert summary["wall_s"] == pytest.approx(sum(best))
    assert summary["live_runs"] == 12


def test_benchmark_json_matches_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.UNITS
