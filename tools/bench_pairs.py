"""Pair benchmark run records and summarize them as a ``BENCH_*.json`` file.

    python3 tools/bench_pairs.py --label frames --parent DIR --change DIR \
        --parent-sha SHA --change-sha SHA --out BENCH_frames.json \
        [--trace-parent FILE --trace-change FILE]

``perfbench/run.py`` writes each run's record to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json`` and overwrites it
on the next run of the same seed, so copy every record aside as soon as its
run ends: one directory per side, named so that sorted file names give the
run order (``001.json``, ``002.json``, ...). Records are grouped by
(workload, seed), and the k-th parent record of a group is paired with its
k-th change record. Per group and end-to-end metric the output holds each
side's median and inclusive quartiles, the number of pairs the change won
(every metric is better lower), and the ratio of the medians; also the
median round count, the largest failed-op share, the environment, and both
commits with their ``src`` trees when the shas resolve in this repository.
Traced records (``--trace 1``) are copied in as given, one per side.
"""
from __future__ import annotations

import argparse
import json
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
            "rounds_median": {"parent": statistics.median(r["rounds"] for r in ps),
                              "change": statistics.median(r["rounds"] for r in cs)},
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
    args = ap.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    try:
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
