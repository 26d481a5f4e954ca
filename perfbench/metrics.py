"""The tail rule, and the per-layer metrics of a traced round and its probes."""
from __future__ import annotations

import numpy as np

from spans import self_times


def tail(samples, beyond: int = 10) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: the sample at rank ``n - beyond`` of the
    ``n`` sorted samples, and ``100 * (n - beyond) / n``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


# per-layer metric -> span whose summed self time it reports
SELF_TIME = {
    "sketch.create.s": "sketch.create",
    "sketch.update.s": "sketch.update",
    "sketch.query.s": "sketch.query",
    "sketch.replay.s": "sketch.replay",
    "permutation.compile.s": "permutation.compile",
    "pseudosnapshot.build_plan.s": "pseudosnapshot.build_plan",
    "pseudosnapshot.terminal_law.s": "pseudosnapshot.terminal_law",
    "pseudosnapshot.oracle.s": "pseudosnapshot.oracle",
    "pseudosnapshot.law_sample.s": "pseudosnapshot.law_sample",
    "bhm.terminal_slabs.s": "bhm.terminal_slabs",
    "bhm.sample.s": "bhm.sample",
    "heavy_edges.terminal_law.s": "heavy_edges.terminal_law",
    "heavy_edges.sample_outputs.s": "heavy_edges.sample_outputs",
    "heavy_edges.oracle.s": "heavy_edges.oracle",
    "triangle.sample_outputs.s": "triangle.sample_outputs",
    "triangle.oracle.s": "triangle.oracle",
    "qsim.enumerate.stochastic.s": "qsim.enumerate.stochastic",
    "qsim.enumerate.quantum.s": "qsim.enumerate.quantum",
    "harness.self.s": "harness.run_experiment",
    "harness.load.s": "harness.load",
}

COUNTS = (
    "sketch.create.calls",
    "sketch.create.members",
    "sketch.update.calls",
    "sketch.query.calls",
    "sketch.query.fires",
    "sketch.replay.calls",
    "sketch.replay.ops",
    "permutation.compile.calls",
    "bhm.terminal_slabs.calls",
    "heavy_edges.terminal_law.calls",
    "triangle.sample_outputs.draws",
    "qsim.enumerate.calls",
    "qsim.outcomes",
)

# ROADMAP item 1 baseline rows, from the probes of a traced run: the mean
# whole duration of one call of a span, on the workload whose probes make it.
# metric -> (workload, span, scale to the unit). They read 0 on other workloads.
BASELINES = {
    "baseline.snapshot.run_single.ms": ("estimators", "pseudosnapshot.run_single", 1e3),
    "baseline.snapshot.terminal_law.s": ("estimators", "pseudosnapshot.terminal_law", 1.0),
    "baseline.snapshot.create.ms": ("estimators", "sketch.create", 1e3),
    "baseline.bhm.terminal_slabs.s": ("estimators", "bhm.terminal_slabs", 1.0),
    "baseline.heavy_edges.terminal_law.s": ("estimators", "heavy_edges.terminal_law", 1.0),
    "baseline.small.create.us": ("small-sketches", "sketch.create", 1e6),
}

# every per-layer metric a traced run reports, with its unit
UNITS = {
    **{metric: "s" for metric in SELF_TIME},
    **{metric: "count" for metric in COUNTS},
    "sketch.query.fire_ratio": "ratio",
    **{metric: metric.rsplit(".", 1)[1] for metric in BASELINES},
    "harness.report.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(names, spans: dict[str, np.ndarray], counts) -> dict[str, float]:
    """Summed self times and the counts of one traced round, by metric name."""
    selft = self_times(spans["start"], spans["end"], spans["parent"])
    by_name = np.bincount(spans["name_id"], weights=selft, minlength=len(names))
    self_by_name = dict(zip(names, by_name))
    out: dict[str, float] = {}
    for metric, span in SELF_TIME.items():
        out[metric] = float(self_by_name.get(span, 0.0))
    for metric in COUNTS:
        out[metric] = int(counts.get(metric, 0))
    calls = out["sketch.query.calls"]
    out["sketch.query.fire_ratio"] = out["sketch.query.fires"] / calls if calls else 0.0
    return out


def baseline_rows(workload: str, names, spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Mean whole duration per call of the baseline spans, in their units."""
    dur = np.bincount(spans["name_id"], weights=spans["end"] - spans["start"],
                      minlength=len(names))
    calls = np.bincount(spans["name_id"], minlength=len(names))
    out = {}
    for metric, (home, span, scale) in BASELINES.items():
        i = names.index(span) if span in names else None
        ok = home == workload and i is not None and calls[i] > 0
        out[metric] = float(scale * dur[i] / calls[i]) if ok else 0.0
    return out
