"""Run alternating benchmark pairs, and summarize run records as a ``BENCH_*.json`` file.

    python3 tools/bench_pairs.py --label frames --parent DIR --change DIR \
        --parent-sha SHA --change-sha SHA --out BENCH_frames.json \
        [--trace-parent FILE --trace-change FILE] \
        [--run PARENT_TREE CHANGE_TREE --workdir DIR --workload W --seed S \
         --pairs N [--traced]]

With ``--run``, the run step first runs ``perfbench/run.py`` ``--pairs`` times
per side in ``--workdir``, each for the ``run_seconds`` of ``BENCHMARK.json``.
There ``perfbench`` links to the change tree's benchmark (both trees must
hold the same one) and ``src`` to the source of the side whose turn it is,
so both sides share one ``.perfbench`` directory and its report digests.
Odd pairs run the parent first, even pairs the change. ``--traced`` adds one
``--trace 1`` run per side, saved under ``trace/`` and used as
``--trace-*``. A run that exits nonzero is reported; its record still
counts, with the failed ops in ``op_fail_frac``.

``perfbench/run.py`` writes each run's record to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json`` and overwrites it
on the next run of the same seed, so every record is copied aside as soon as
its run ends: one directory per side, named so that sorted file names give the
run order (``001.json``, ``002.json``, ...); the run step continues the
numbering of records already there. Records are grouped by
(workload, seed), and the k-th parent record of a group is paired with its
k-th change record. Per group and end-to-end metric the output holds each
side's median and inclusive quartiles, the number of pairs the change won
(every metric is better lower), and the ratio of the medians; also each
side's round counts (median and quartiles; ``peak_rss_mb`` grows with them),
the largest failed-op share, the environment, and both
commits with their ``src`` trees when the shas resolve in this repository.
Traced records (``--trace 1``) are copied in as given, one per side.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "wall_s", "verdict_s", "live_run_p50_ms", "live_run_tail_ms", "peak_rss_mb")
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 60 --trace 0"
METHOD = (
    "alternating pairs: odd pairs run the parent first, even pairs the change; both sides "
    "run in one directory with identical perfbench/ files, so report digests are compared "
    "across sides; quartiles are inclusive; every metric is better lower"
)
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _link(link: Path, target: Path) -> None:
    if link.is_symlink():
        link.unlink()
    link.symlink_to(target.resolve(), target_is_directory=True)


def _same_benchmark(a: Path, b: Path) -> bool:
    files = sorted(p.relative_to(a) for p in a.rglob("*.py"))
    return files == sorted(p.relative_to(b) for p in b.rglob("*.py")) and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files)


def run_pairs(trees: dict, workdir: Path, records: dict, workload: str, seed: int,
              seconds: int, pairs: int, traced: bool = False) -> list[str]:
    """Run ``pairs`` alternating benchmark pairs (and with ``traced`` one traced
    run per side) and copy each record to ``records[side]``.

    ``trees`` and ``records`` map "parent" and "change" to a source tree and a
    record directory. Returns one message per run that exited nonzero.
    """
    if not _same_benchmark(trees["parent"] / "perfbench", trees["change"] / "perfbench"):
        raise ValueError("the parent and change trees hold different perfbench/ files")
    workdir.mkdir(parents=True, exist_ok=True)
    _link(workdir / "perfbench", trees["change"] / "perfbench")
    order = [("parent", "change") if i % 2 == 0 else ("change", "parent") for i in range(pairs)]
    runs = [(side, 0) for sides in order for side in sides]
    runs += [(side, 1) for side in ("parent", "change")] if traced else []
    problems = []
    for side, trace in runs:
        _link(workdir / "src", trees[side] / "src")
        record = workdir / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
        record.unlink(missing_ok=True)
        code = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], cwd=workdir).returncode
        if not record.exists():
            raise ValueError(f"{side} run left no record (exit {code})")
        out = records[side] / "trace" if trace else records[side]
        out.mkdir(parents=True, exist_ok=True)
        saved = out / f"{len(list(out.glob('*.json'))) + 1:03d}.json"
        shutil.copyfile(record, saved)
        if code:
            problems.append(f"{saved} exited {code}")
    return problems


def load(directory: Path) -> list[dict]:
    """The records in ``directory``, in sorted file-name order."""
    return [json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))]


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(parent: list[dict], change: list[dict]) -> list[dict]:
    """One entry per (workload, seed), in order of first appearance."""
    groups: dict[tuple, tuple[list, list]] = {}
    for side, records in enumerate((parent, change)):
        for rec in records:
            if rec["args"]["trace"]:
                raise ValueError("traced records carry no end-to-end metrics; pass them as --trace-*")
            groups.setdefault((rec["workload"], rec["seed"]), ([], []))[side].append(rec)
    runs = []
    for (workload, seed), (ps, cs) in groups.items():
        if len(ps) != len(cs):
            raise ValueError(f"{workload} seed {seed}: {len(ps)} parent records, {len(cs)} change")
        metrics = {}
        for name in METRICS:
            pv, cv = [r[name] for r in ps], [r[name] for r in cs]
            metrics[name] = {
                "parent": _spread(pv),
                "change": _spread(cv),
                "change_better_pairs": sum(c < p for p, c in zip(pv, cv)),
                "median_change_over_parent": round(statistics.median(cv) / statistics.median(pv), 4),
            }
        runs.append({
            "workload": workload,
            "seed": seed,
            "pairs": len(ps),
            "rounds": {"parent": _spread([r["rounds"] for r in ps]),
                       "change": _spread([r["rounds"] for r in cs])},
            "op_fail_frac_max": {"parent": max(r["op_fail_frac"] for r in ps),
                                 "change": max(r["op_fail_frac"] for r in cs)},
            "metrics": metrics,
        })
    return runs


def environment(records: list[dict]) -> dict:
    """The python, numpy and cpu count every record shares."""
    envs = {json.dumps({k: r["env"][k] for k in ("nproc", "python", "numpy")}, sort_keys=True)
            for r in records}
    if len(envs) != 1:
        raise ValueError(f"records come from {len(envs)} environments")
    return json.loads(envs.pop())


def commit(sha: str) -> dict:
    """The commit and, when it resolves here, the tree of its ``src``."""
    try:
        tree = subprocess.run(["git", "rev-parse", f"{sha}:src"], capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        tree = None
    return {"sha": sha, "src_tree": tree}


def trace_layers(path: Path | None) -> dict | None:
    """name -> value of a traced record's per-layer metrics."""
    if path is None:
        return None
    return {name: value for name, (value, _) in json.loads(path.read_text())["layers"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", type=Path, required=True, help="directory of parent records")
    ap.add_argument("--change", type=Path, required=True, help="directory of change records")
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--change-sha", required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace-parent", type=Path)
    ap.add_argument("--trace-change", type=Path)
    step = ap.add_argument_group("run step")
    step.add_argument("--run", nargs=2, type=Path, metavar=("PARENT_TREE", "CHANGE_TREE"))
    step.add_argument("--workdir", type=Path)
    step.add_argument("--workload")
    step.add_argument("--seed", type=int)
    step.add_argument("--pairs", type=int)
    step.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.run:
            if None in (args.workdir, args.workload, args.seed, args.pairs):
                ap.error("--run needs --workdir, --workload, --seed and --pairs")
            records = {"parent": args.parent, "change": args.change}
            seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
            for problem in run_pairs(dict(zip(records, args.run)), args.workdir, records,
                                     args.workload, args.seed, seconds, args.pairs, args.traced):
                print(f"bench_pairs.py: {problem}", file=sys.stderr)
            if args.traced:
                args.trace_parent = max((args.parent / "trace").glob("*.json"))
                args.trace_change = max((args.change / "trace").glob("*.json"))
        parent, change = load(args.parent), load(args.change)
        out = {
            "label": args.label,
            "change": commit(args.change_sha),
            "command": COMMAND,
            "method": METHOD,
            "parent": commit(args.parent_sha),
            "runs": summarize(parent, change),
            "env": environment(parent + change),
        }
    except (ValueError, KeyError) as exc:
        print(f"bench_pairs.py: {exc}", file=sys.stderr)
        return 2
    if args.trace_parent or args.trace_change:
        out["trace"] = {"parent": trace_layers(args.trace_parent),
                        "change": trace_layers(args.trace_change)}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
