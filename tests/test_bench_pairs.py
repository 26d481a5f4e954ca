"""tools/bench_pairs.py on synthetic run records."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def record(workload, seed, wall, rounds=10, fail=0.0, trace=0):
    metrics = {name: wall for name in bench_pairs.METRICS}
    return {
        "args": {"workload": workload, "seed": seed, "seconds": 60, "trace": trace},
        "env": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "git": {"sha": "unknown"}},
        "workload": workload, "seed": seed, "rounds": rounds, "op_fail_frac": fail,
        "layers": {"sketch.update.s": [wall, "s"]},
        **metrics,
    }


def write(directory, records):
    directory.mkdir()
    for i, rec in enumerate(records):
        (directory / f"{i:03d}.json").write_text(json.dumps(rec))
    return directory


def test_pairs_in_run_order_per_workload_and_seed(tmp_path):
    parent = write(tmp_path / "p", [
        record("estimators", 1, 4.0, rounds=17), record("estimators", 1, 2.0, rounds=10),
        record("estimators", 1, 3.0, rounds=12), record("small", 1, 1.0, rounds=30, fail=0.5),
    ])
    change = write(tmp_path / "c", [
        record("estimators", 1, 3.0, rounds=9), record("estimators", 1, 2.5, rounds=14),
        record("estimators", 1, 1.0, rounds=9), record("small", 1, 1.0, rounds=31),
    ])
    traced = tmp_path / "t.json"
    traced.write_text(json.dumps(record("estimators", 1, 0.5, trace=1)))
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main([
        "--label", "x", "--parent", str(parent), "--change", str(change),
        "--parent-sha", "aaa", "--change-sha", "bbb", "--out", str(out),
        "--trace-parent", str(traced), "--trace-change", str(traced),
    ]) == 0
    bench = json.loads(out.read_text())
    assert bench["label"] == "x" and bench["env"] == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    assert [bench["parent"]["sha"], bench["change"]["sha"]] == ["aaa", "bbb"]
    est, small = bench["runs"]
    assert (est["workload"], est["pairs"], small["pairs"]) == ("estimators", 3, 1)
    wall = est["metrics"]["wall_s"]
    # pairs (4, 3), (2, 2.5), (3, 1): the change wins the first and the last
    assert wall["change_better_pairs"] == 2
    assert wall["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5}
    assert wall["change"] == {"median": 2.5, "q1": 1.75, "q3": 2.75}
    assert wall["median_change_over_parent"] == round(2.5 / 3.0, 4)
    assert small["rounds"] == {"parent": {"median": 30, "q1": 30, "q3": 30},
                               "change": {"median": 31, "q1": 31, "q3": 31}}
    # the round counts of the three estimators pairs: 10, 12, 17 and 9, 9, 14
    assert est["rounds"] == {"parent": {"median": 12, "q1": 11.0, "q3": 14.5},
                             "change": {"median": 9, "q1": 9.0, "q3": 11.5}}
    assert small["op_fail_frac_max"] == {"parent": 0.5, "change": 0.0}
    assert small["metrics"]["wall_s"]["change_better_pairs"] == 0
    assert bench["trace"]["change"] == {"sketch.update.s": 0.5}


def test_unmatched_or_traced_records_are_refused(tmp_path, capsys):
    parent = write(tmp_path / "p", [record("estimators", 1, 1.0), record("estimators", 1, 1.0)])
    change = write(tmp_path / "c", [record("estimators", 1, 1.0)])
    traced = write(tmp_path / "t", [record("estimators", 1, 1.0, trace=1)] * 2)
    args = ["--label", "x", "--parent-sha", "a", "--change-sha", "b", "--out", str(tmp_path / "o")]
    assert bench_pairs.main([*args, "--parent", str(parent), "--change", str(change)]) == 2
    assert "2 parent records, 1 change" in capsys.readouterr().err
    assert bench_pairs.main([*args, "--parent", str(parent), "--change", str(traced)]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("values, want", [([5.0], (5.0, 5.0, 5.0)), ([1.0, 3.0], (1.5, 2.0, 2.5))])
def test_spread_of_few_runs(values, want):
    got = bench_pairs._spread(values)
    assert (got["q1"], got["median"], got["q3"]) == want


# -- the run step, with a stub perfbench/run.py --------------------------------

STUB_RUN = """
import json, sys
from pathlib import Path

args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = json.loads(Path("src/record.json").read_text())
with open("runs.log", "a") as log:
    log.write(f"{side['side']} {args['--trace']} {Path('src').resolve().parent.name} "
              f"{args['--seconds']}\\n")
rec = dict(side["record"], args={**side["record"]["args"], "trace": int(args["--trace"])})
out = Path(".perfbench/results")
out.mkdir(parents=True, exist_ok=True)
name = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
(out / name).write_text(json.dumps(rec))
sys.exit(side["exit"])
"""


def tree(path, side, wall, code=0, stub=STUB_RUN):
    (path / "src").mkdir(parents=True)
    (path / "perfbench").mkdir()
    (path / "perfbench" / "run.py").write_text(stub)
    rec = record("estimators", 5, wall, trace=0)
    (path / "src" / "record.json").write_text(json.dumps({"side": side, "record": rec, "exit": code}))
    return path


def test_run_step_alternates_sides_in_one_directory(tmp_path, capsys):
    parent, change = tree(tmp_path / "p", "parent", 2.0), tree(tmp_path / "c", "change", 1.0, code=1)
    work, out = tmp_path / "work", tmp_path / "BENCH_x.json"
    rp, rc = tmp_path / "rp", tmp_path / "rc"

    def bench(pairs, *traced):
        return bench_pairs.main([
            "--label", "x", "--parent", str(rp), "--change", str(rc), "--parent-sha", "a",
            "--change-sha", "b", "--out", str(out), "--run", str(parent), str(change),
            "--workdir", str(work), "--workload", "estimators", "--seed", "5",
            "--pairs", str(pairs), *traced,
        ])

    assert bench(2, "--traced") == 0
    runs = (work / "runs.log").read_text().splitlines()
    seconds = json.loads(bench_pairs.BENCHMARK.read_text())["run_seconds"]
    assert runs == [f"{run} {seconds}" for run in (
        "parent 0 p", "change 0 c", "change 0 c", "parent 0 p", "parent 1 p", "change 1 c")]
    # every change run exits 1: reported, and its record still counts
    err = capsys.readouterr().err
    assert err.count("exited 1") == 3 and f"{rc / 'trace' / '001.json'} exited 1" in err
    assert json.loads(out.read_text())["trace"]["parent"] == {"sketch.update.s": 2.0}

    assert bench(1) == 0  # numbering continues after the records already there
    assert sorted(p.name for p in rp.glob("*.json")) == ["001.json", "002.json", "003.json"]
    (est,) = json.loads(out.read_text())["runs"]
    assert est["pairs"] == 3 and est["metrics"]["wall_s"]["change_better_pairs"] == 3


def test_run_step_refuses_trees_with_different_benchmarks(tmp_path, capsys):
    parent = tree(tmp_path / "p", "parent", 2.0)
    change = tree(tmp_path / "c", "change", 1.0, stub=STUB_RUN + "# edited\n")
    assert bench_pairs.main([
        "--label", "x", "--parent", str(tmp_path / "rp"), "--change", str(tmp_path / "rc"),
        "--parent-sha", "a", "--change-sha", "b", "--out", str(tmp_path / "o"),
        "--run", str(parent), str(change), "--workdir", str(tmp_path / "w"),
        "--workload", "estimators", "--seed", "5", "--pairs", "1",
    ]) == 2
    assert "different perfbench/ files" in capsys.readouterr().err
    assert not (tmp_path / "w").exists() and not (tmp_path / "o").exists()
