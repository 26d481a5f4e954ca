"""One workload run in a fresh process: set up, time the rounds, check every op.

``run.py`` starts this script; it is not meant to be run by hand. It prints
``ready`` once set-up (interpreter start, ``import pairsketch``, generating and
writing the instances) is done, then, unless ``--setup-only``, one JSON line
with the results of the timed rounds.

A run repeats one round of ops several times and reports, for every op and
live copy, its fastest round; ``wall_s`` is the sum of those. The 2-vCPU VMs
this was tuned on switch each vCPU between two speeds about 1.4x apart, in
phases of one to twenty seconds, independently of each other. A median over
a run inherits whichever phase dominated it, while the fastest of many short
rounds spread over the run, alternating between the CPUs the process may
use, measures the code. Every round must produce the same outputs, which
also checks that reports repeat byte for byte.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from metrics import UNITS, baseline_rows, layer_metrics, tail
from spans import Tracer, install

MIN_ROUNDS = 3


def run_round(ops, tracer: Tracer | None = None):
    """Run every op in order; return (round seconds, op results).

    Each op result is ``(times, values, index)``: the seconds of each copy,
    the distinct kept values, and which value each copy kept.
    """
    gc.collect()
    results = []
    run_id = 0
    t_round = perf_counter()
    for op in ops:
        fn = op.run if tracer is None else tracer.wrap("bench." + op.kind, op.run)
        times = array("d")
        index = array("i")
        seen: dict = {}
        values: list = []
        for h in range(op.copies):
            if tracer is not None:
                tracer.run_id = run_id
            run_id += 1
            t0 = perf_counter()
            result = fn(h)
            times.append(perf_counter() - t0)
            kept = op.keep(result)
            if op.copies == 1:  # experiments: reports are not hashable
                values.append(kept)
                index.append(0)
            else:
                index.append(seen.setdefault(kept, len(seen)))
        results.append((times, values if op.copies == 1 else list(seen), index))
    return perf_counter() - t_round, results


def check_round(ops, results) -> tuple[list, dict]:
    """Check every op outside the timings.

    Returns the failures as ``(op id, message)`` and each report's digest.
    """
    failures = []
    digests = {}
    for op, (_, values, index) in zip(ops, results):
        if op.kind == "prep":
            continue
        verdicts = [op.check(v) for v in values]
        for h, i in enumerate(index):
            if verdicts[i] is not None:
                copy = f", copy {h}" if op.copies > 1 else ""
                failures.append((op.name + copy, verdicts[i]))
        if op.kind == "experiment":
            digests[op.name] = workloads.report_digest(values[0])
    return failures, digests


def compare_rounds(ops, first, other, what: str) -> list:
    """Another round of the same ops must reproduce every output of the first."""
    failures = []
    for op, (_, v1, i1), (_, v2, i2) in zip(ops, first, other):
        if op.kind == "experiment":
            same = workloads.report_digest(v1[0]) == workloads.report_digest(v2[0])
        else:
            same = [v1[i] for i in i1] == [v2[i] for i in i2]
        if not same:
            failures.append((op.name, f"{what} output differs from the first round"))
    return failures


def summarize(ops, round_times, rounds) -> dict:
    """End-to-end metrics from the fastest round of each op and live copy."""
    best = [np.min([r[i][0] for r in rounds], axis=0) for i in range(len(ops))]
    live = np.concatenate([t for op, t in zip(ops, best) if op.kind == "live"])
    tail_s, tail_pct = tail(live.tolist())
    return {
        "wall_s": float(sum(t.sum() for t in best)),
        "verdict_s": float(sum(t[0] for op, t in zip(ops, best) if op.kind == "experiment")),
        "live_run_p50_ms": 1e3 * statistics.median(live.tolist()),
        "live_run_tail_ms": 1e3 * tail_s,
        "live_run_tail_pct": tail_pct,
        "live_runs": len(live),
        "round_s": round_times,
    }


def execute(wl: workloads.Workload, seconds: float, trace: bool, workdir: Path | None = None):
    """Time rounds for about ``seconds``; with ``trace``, one plain and one traced.

    A plain run times at least ``MIN_ROUNDS`` rounds, and more while another
    round fits into 80% of ``seconds``, so a slow machine runs fewer rounds
    rather than overrunning.
    """
    ops = wl.ops
    cpus = sorted(os.sched_getaffinity(0))
    round_times, results = [], []
    try:
        while not results or (not trace and (
                len(results) < MIN_ROUNDS
                or sum(round_times) * (1 + 1 / len(results)) <= 0.8 * seconds)):
            os.sched_setaffinity(0, {cpus[len(results) % len(cpus)]})
            elapsed, res = run_round(ops)
            round_times.append(elapsed)
            results.append(res)
    finally:
        os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, digests = check_round(ops, results[0])
    for res in results[1:]:
        failures += compare_rounds(ops, results[0], res, "a later round's")
    out = {
        "workload": wl.name,
        "seed": wl.seed,
        "rounds": len(results),
        "params": wl.params,
        "inputs": wl.inputs,
        "attempted": len(results) * sum(op.copies for op in ops if op.kind != "prep"),
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
        **summarize(ops, round_times, results),
    }
    if trace:
        tracer, traced_seconds, traced = traced_round(ops)
        failures += compare_rounds(ops, results[0], traced, "the traced round's")
        spans = tracer.arrays()
        failures += coverage(ops, spans, tracer.names)
        layers = layer_metrics(tracer.names, spans, tracer.counts)
        probes = traced_round(wl.probes)[0]
        layers.update(baseline_rows(wl.name, probes.names, probes.arrays()))
        layers["harness.report.bytes"] = sum(size for _, size in digests.values())
        layers["trace.overhead_frac"] = traced_seconds / round_times[0] - 1
        out["layers"] = {name: [layers[name], unit] for name, unit in UNITS.items()}
        out["spans"] = len(tracer)
        if workdir is not None:
            (workdir / "spans").mkdir(parents=True, exist_ok=True)
            tracer.save(workdir / "spans" / f"{wl.name}-seed{wl.seed}.npz")
    out["failures"] = failures
    return out


def traced_round(ops):
    """Run one round with the tracer installed; return (tracer, seconds, results)."""
    tracer = Tracer()
    install(tracer)
    try:
        seconds, results = run_round(ops, tracer)
    finally:
        tracer.uninstall()
    return tracer, seconds, results


def coverage(ops, spans, names) -> list:
    """Every live run must show exactly one traced ``create``.

    A module that calls ``create`` through a name the tracer did not rebind
    would make this count short, instead of silently shrinking the numbers.
    """
    is_live = np.concatenate([np.full(op.copies, op.kind == "live") for op in ops])
    if "sketch.create" in names:
        creates = spans["run"][spans["name_id"] == names.index("sketch.create")]
    else:
        creates = np.zeros(0, dtype=np.int32)
    traced, issued = int(is_live[creates].sum()), int(is_live.sum())
    if traced != issued:
        return [("coverage", f"{traced} traced creates for {issued} live runs")]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.workdir / "instances")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out = execute(wl, args.seconds, bool(args.trace), args.workdir)
    out["env"] = {"python": platform.python_version(), "numpy": np.__version__}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
