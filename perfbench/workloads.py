"""The two seeded workloads: instances, ops and the check of every op.

Only this module reads the workload seed. It turns the seed into instances
and master seeds, writes the instance files, and hands the library nothing
but those generated inputs.

A workload is a round of ops executed one after another by one client (a
closed loop). An op is one harness experiment, from ``ExperimentConfig`` to
``Report``, or one live estimator run, from ``create`` to its terminal
outcome. "prep" steps (building a shared snapshot plan) run between ops and
count towards ``wall_s`` only. A run repeats the round (see ``worker.py``).
Experiments run on scaled instances so that none takes much over a second;
live runs keep the shapes of ROADMAP item 1. Probes, run only by a traced
run, call the exact laws once at those shapes for the baseline rows.

The estimators workload runs the four graph estimators (pseudosnapshot with
criterion 7's settings, bhm, heavy edges, triangles); small-sketches runs
criterion 3's tiny handles and the qsim equivalence experiment.

Why the seed relabels instead of redrawing: how long the exact laws take
depends strongly on an instance's structure (a redrawn n = 12, m = 30 stream
moves ``pseudosnapshot.terminal_law`` between 4.7 s and 8.2 s). So the
estimators workload draws each graph once from a fixed base seed, and the
run seed applies a vertex relabeling (and, for bhm, the hidden bit) to it,
plus the experiments' master seeds. Live runs use fixed handle seeds, so
every seed does the same live work. The small-sketches workload draws its
200 scripts from the seed; their costs average out.

Ops call the library through module attributes (``sketch.create``, not a
name imported here), so a traced round sees every call.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from pairsketch import bhm, harness, heavy_edges, pseudosnapshot, sketch, triangle
from pairsketch.bhm import BhmInstance, EdgeLabel, VertexBit
from pairsketch.harness import ExperimentConfig, canonical_json
from pairsketch.heavy_edges import DirectedEdgeStream
from pairsketch.triangle import EdgeStream
from pairsketch.universe import Block, IntRange, UniverseSpec

# Full-size parameters. Experiments run on scaled instances so that each
# takes under about a second and a run can time it in many rounds (see
# worker.py); live runs and probes keep the shapes of ROADMAP item 1.
PARAMS: dict[str, dict[str, Any]] = {
    "estimators": {
        "snapshot": {
            "n": 12,
            "m": 30,  # live runs and probes: criterion 7's stream, big_m = 7680
            "experiment_m": 10,  # the first 10 edges of that stream, big_m = 2560
            "base_seed": 30,
            "hash_seed": 7,
            "kappa": 2,
            "eps": "1/2",
            "thresholds": ["-1", "0"],
            "class_pair": [3, 1],
            "trials": 300_000,
            "live_copies": 10,
            "probe_runs": 4,
        },
        "bhm_alpha": "1/4",
        "bhm_base_seed": 19,
        "bhm_n": 256,
        "bhm_trials": 200_000,
        "bhm_meta_trials": 1000,
        "live_bhm_n": 1024,
        "heavy_base_seed": 400,
        "heavy_n": 50,
        "heavy_m": 100,
        "live_heavy_n": 100,
        "live_heavy_m": 400,
        "heavy_d_H": 2,
        "heavy_d_T": 1,
        "heavy_trials": 200_000,
        "triangle_base_seed": 501,
        "triangle_n": 100,
        "triangle_p": 0.1,
        "triangle_k": 5,
        "triangle_trials": 10_000,
        "live_triangle_n": 30,
        "live_triangle_p": 0.3,
        "live_triangle_k": 2,
        "live_copies": 10,
    },
    "small-sketches": {
        "universe": 32,
        "min_members": 2,
        "max_members": 16,
        "max_len": 8,
        "scripts": 200,
        "handles_per_script": 100,
        "equivalence_universe": 10,
        "equivalence_max_size": 5,
        "equivalence_max_len": 10,
        "probe_members": 10,
        "probe_creates": 2000,
    },
}

WORKLOADS = tuple(PARAMS)
_TAG = {name: i for i, name in enumerate(WORKLOADS)}
LIVE_SEED = 1000  # master seed of every live handle


@dataclass
class Op:
    """One step of a round, run ``copies`` times as ``run(0)``, ``run(1)``, ...

    ``run`` is timed; ``keep`` and ``check`` are not. ``keep`` reduces a
    result to a hashable value for ``check``, so a round holds no live handles
    and can store each distinct value once. ``check`` returns a failure
    message or None.
    """

    kind: str  # "experiment" | "live" | "prep" | "probe"
    label: str
    name: str
    run: Callable[[int], Any]
    copies: int = 1
    keep: Callable[[Any], Any] = lambda result: result
    check: Callable[[Any], str | None] = lambda kept: None


@dataclass
class Workload:
    name: str
    seed: int
    params: dict[str, Any]
    ops: list[Op] = field(default_factory=list)
    probes: list[Op] = field(default_factory=list)  # traced runs only, unchecked
    inputs: dict[str, Any] = field(default_factory=dict)


def build(name: str, seed: int, workdir: Path, params=None) -> Workload:
    """Generate and write the workload's instances; return its round of ops."""
    params = dict(PARAMS[name] if params is None else params)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, seed, params)
    _BUILDERS[name](wl, np.random.default_rng([seed, _TAG[name]]), params, workdir)
    return wl


def report_digest(report) -> tuple[str, int]:
    """SHA-256 and length of the report's canonical JSON bytes."""
    data = canonical_json(report.to_dict()).encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _relabeling(n: int, rng: np.random.Generator) -> list[int]:
    """A uniform permutation of 1..n, as a list indexed by the old label."""
    return [0] + [int(v) + 1 for v in rng.permutation(n)]


def random_directed(n: int, m: int, rng: np.random.Generator) -> DirectedEdgeStream:
    """Uniform simple directed stream without self-loops, in arrival order."""
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u, v = (int(x) for x in rng.integers(1, n + 1, size=2))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return DirectedEdgeStream(n, tuple(edges))


def relabel_directed(stream: DirectedEdgeStream, rng) -> DirectedEdgeStream:
    new = _relabeling(stream.n, rng)
    return DirectedEdgeStream(stream.n, tuple((new[u], new[v]) for u, v in stream.edges))


def relabel_undirected(stream: EdgeStream, rng) -> EdgeStream:
    new = _relabeling(stream.n, rng)
    return EdgeStream(stream.n, tuple((new[u], new[v]) for u, v in stream.edges))


def relabel_bhm(inst: BhmInstance, rng) -> BhmInstance:
    """Same stream shape with relabeled vertices and a freshly drawn hidden bit."""
    new = _relabeling(inst.n, rng)
    b = int(rng.integers(0, 2))
    flip = b ^ inst.b
    x = [0] * inst.n
    for v, bit in enumerate(inst.x, start=1):
        x[new[v] - 1] = bit
    stream = tuple(
        VertexBit(new[item.v], item.bit) if isinstance(item, VertexBit)
        else EdgeLabel(new[item.u], new[item.v], item.z ^ flip)
        for item in inst.stream
    )
    return BhmInstance(
        inst.n, inst.alpha, tuple((new[u], new[v]) for u, v in inst.matching),
        tuple(z ^ flip for z in inst.z), tuple(x), b, stream,
    )


def _experiment(wl: Workload, label: str, config: ExperimentConfig, check=None) -> None:
    def verify(report) -> str | None:
        if not report.passed:
            failed = sorted(k for k, ok in report.verdicts.items() if not ok)
            return f"report failed verdicts {failed}"
        return check(report.results) if check else None

    wl.ops.append(Op("experiment", label, f"{label} experiment",
                     lambda _: harness.run_experiment(config), check=verify))


def _live_block(wl: Workload, label: str, copies: int, run, check) -> None:
    wl.ops.append(Op("live", label, f"{label} live runs", run, copies, check=check))


def _drop(result) -> None:
    return None


def _in(support):
    return lambda out: None if out in support else f"output {out!r} not in {support}"


# -- snapshot ------------------------------------------------------------------


def _snapshot_config(p, path: Path, seed: int) -> ExperimentConfig:
    alpha, beta = p["class_pair"]
    return ExperimentConfig(
        "snapshot",
        {"kappa": p["kappa"], "eps": p["eps"], "thresholds": p["thresholds"],
         "alpha": alpha, "beta": beta, "hash_seed": p["hash_seed"]},
        p["trials"], seed, str(path),
    )


def _build_snapshot(wl: Workload, rng, p, workdir: Path) -> None:
    base = random_directed(p["n"], p["m"], np.random.default_rng(p["base_seed"]))
    stream = relabel_directed(base, rng)
    small = DirectedEdgeStream(p["n"], stream.edges[:p["experiment_m"]])
    path = workdir / "snapshot.txt"
    harness.write_instance(small, path)
    exp_seed = _seed(rng)
    wl.inputs["snapshot"] = {"edges": stream.edges, "experiment_seed": exp_seed}

    def big_m(m: int) -> int:
        return 32 * p["kappa"] ** 3 * m

    def shape(results) -> str | None:
        want = big_m(small.m)
        return None if results["big_m"] == want else f"big_m {results['big_m']} != {want}"

    _experiment(wl, "snapshot", _snapshot_config(p, path, exp_seed), shape)

    grid = pseudosnapshot.DegreeGrid.from_eps(p["n"], p["eps"])
    hashes = pseudosnapshot.HashOracles(p["hash_seed"], p["kappa"], p["eps"])
    sp = pseudosnapshot.SnapshotParams(
        kappa=p["kappa"], eps=p["eps"], thresholds=tuple(p["thresholds"]),
        class_pair=tuple(p["class_pair"]),
    )
    shared: dict[str, Any] = {}

    def prep(_):
        shared["plan"] = pseudosnapshot.build_plan(stream, hashes, grid, sp)

    wl.ops.append(Op("prep", "snapshot", "snapshot plan", prep))

    def run(h):
        return pseudosnapshot.run_single(
            stream, hashes, grid, sp, LIVE_SEED, handle_id=h, plan=shared["plan"]
        )

    half = big_m(stream.m) // 2

    def in_support(est) -> str | None:
        nonzero = [v for row in est.entries for v in row if v]
        if len(nonzero) > 1 or any(abs(v) != half for v in nonzero):
            return f"entries {est.entries} not a single +-{half}"
        return None

    _live_block(wl, "snapshot", p["live_copies"], run, in_support)

    def law(_):
        return pseudosnapshot.terminal_law(stream, hashes, grid, sp, plan=shared["plan"])

    wl.probes += [
        Op("prep", "snapshot", "snapshot plan", prep),
        Op("probe", "snapshot", "snapshot terminal law", law, keep=_drop),
        Op("probe", "snapshot", "snapshot live runs", run, p["probe_runs"], keep=_drop),
    ]


# -- estimators ------------------------------------------------------------------


def _build_estimators(wl: Workload, rng, p, workdir: Path) -> None:
    _build_snapshot(wl, rng, p["snapshot"], workdir)

    def matching(n):
        inst, _ = harness.generate_graph(
            "matching", {"n": n, "alpha": p["bhm_alpha"]}, p["bhm_base_seed"])
        return relabel_bhm(inst, rng)

    def directed(n, m):
        return relabel_directed(
            random_directed(n, m, np.random.default_rng(p["heavy_base_seed"])), rng)

    def gnp(n, prob):
        g, _ = harness.generate_graph("gnp", {"n": n, "p": prob}, p["triangle_base_seed"])
        return relabel_undirected(g, rng)

    inst = matching(p["bhm_n"])
    heavy = directed(p["heavy_n"], p["heavy_m"])
    tri = gnp(p["triangle_n"], p["triangle_p"])
    live_bhm = matching(p["live_bhm_n"])
    live_heavy = directed(p["live_heavy_n"], p["live_heavy_m"])
    live_tri = gnp(p["live_triangle_n"], p["live_triangle_p"])
    paths = {k: workdir / f"{k}.txt" for k in ("bhm", "heavy", "triangle")}
    harness.write_instance(inst, paths["bhm"])
    harness.write_instance(heavy, paths["heavy"])
    harness.write_instance(tri, paths["triangle"])
    exp = {k: _seed(rng) for k in ("bhm", "heavy", "triangle")}
    wl.inputs.update({"bhm_b": inst.b, "live_bhm_b": live_bhm.b, "triangle_m": tri.m,
                      "live_triangle_m": live_tri.m, "experiment_seeds": exp})

    _experiment(wl, "bhm", ExperimentConfig(
        "bhm", {"meta_trials": p["bhm_meta_trials"]}, p["bhm_trials"], exp["bhm"],
        str(paths["bhm"])))
    _experiment(wl, "heavy", ExperimentConfig(
        "heavy", {"d_H": p["heavy_d_H"], "d_T": p["heavy_d_T"]}, p["heavy_trials"],
        exp["heavy"], str(paths["heavy"])))
    _experiment(wl, "triangle", ExperimentConfig(
        "triangle", {"k": p["triangle_k"]}, p["triangle_trials"], exp["triangle"],
        str(paths["triangle"])))

    copies = p["live_copies"]

    def bhm_run(h):
        return bhm.run_single(live_bhm, master_seed=LIVE_SEED, handle_id=h)

    _live_block(wl, "bhm", copies, bhm_run, _in((0, 1, None)))

    d_h, d_t = p["heavy_d_H"], p["heavy_d_T"]

    def heavy_run(h):
        return heavy_edges.run_single(live_heavy, d_h, d_t, LIVE_SEED, handle_id=h)

    m = live_heavy.m
    _live_block(wl, "heavy", copies, heavy_run, _in((0, 2 * m, -2 * m)))

    k = p["live_triangle_k"]

    def tri_run(h):
        return triangle.run_single(live_tri, k, LIVE_SEED, handle_id=h)

    _live_block(wl, "triangle", copies, tri_run, _in((0, k * live_tri.m, -k * live_tri.m)))

    wl.probes += [
        Op("probe", "bhm", "bhm terminal slabs", lambda _: bhm.terminal_slabs(live_bhm),
           keep=_drop),
        Op("probe", "heavy", "heavy terminal law",
           lambda _: heavy_edges.terminal_law(live_heavy, d_h, d_t), keep=_drop),
    ]


# -- small sketches ------------------------------------------------------------------


def _build_small(wl: Workload, rng, p, workdir: Path) -> None:
    eq_seed = _seed(rng)
    eq_subsets = sum(
        len(list(itertools.combinations(range(p["equivalence_universe"]), size)))
        for size in range(1, p["equivalence_max_size"] + 1)
    )
    config = ExperimentConfig(
        "equivalence",
        {"universe": p["equivalence_universe"], "max_size": p["equivalence_max_size"],
         "max_len": p["equivalence_max_len"]},
        eq_subsets, eq_seed,
    )

    def covered(results) -> str | None:
        if results["max_tv"] > 1e-9:
            return f"max_tv {results['max_tv']} > 1e-9"
        if results["subsets_covered"] != eq_subsets:
            return f"{results['subsets_covered']} of {eq_subsets} subsets covered"
        return None

    _experiment(wl, "equivalence", config, covered)

    universe = UniverseSpec((Block("v", (IntRange(1, p["universe"]),)),))
    scripts = []
    for _ in range(p["scripts"]):
        size = int(rng.integers(p["min_members"], p["max_members"] + 1))
        members = sorted(int(x) for x in rng.choice(p["universe"], size=size, replace=False))
        script = harness.random_script(universe, rng, p["max_len"])
        scripts.append((members, script, _seed(rng)))
    wl.inputs = {"equivalence_seed": eq_seed, "equivalence_scripts": eq_subsets,
                 "script_ops": sum(len(sc) for _, sc, _ in scripts),
                 "members": sum(len(m) for m, _, _ in scripts)}

    for members, script, master_seed in scripts:
        _small_block(wl, universe, members, script, master_seed, p["handles_per_script"])

    members = list(range(p["probe_members"]))
    wl.probes = [Op("probe", "small", "small creates",
                    lambda h: sketch.create(universe, members, handle_id=h),
                    p["probe_creates"], keep=_drop)]


def _small_block(wl, universe, members, script, master_seed, handles) -> None:
    queries = sum(not isinstance(op, sketch.Update) for op in script)
    expected: list[frozenset] = []

    def run(h):
        handle = sketch.create(universe, members, master_seed=master_seed, handle_id=h)
        return handle, sketch.run_script(handle, script)

    def keep(result):
        handle, outcomes = result
        return outcomes, None if handle.destroyed else frozenset(handle.debug_members())

    def check(kept) -> str | None:
        outcomes, survivors = kept
        fired = [o.fires() for o in outcomes]
        if any(fired[:-1]):
            return f"outcomes {outcomes} continue after a fire"
        if fired and fired[-1]:
            return None if survivors is None else "handle alive after a fire"
        if len(outcomes) != queries:
            return f"{len(outcomes)} outcomes for {queries} queries"
        if not expected:
            expected.append(sketch.replay_noiseless(universe, members, script).survivors)
        if survivors != expected[0]:
            return f"survivors {sorted(survivors)} != replay {sorted(expected[0])}"
        return None

    wl.ops.append(Op("live", "small", f"small live runs on members {members}",
                     run, handles, keep, check))


_BUILDERS = {
    "estimators": _build_estimators,
    "small-sketches": _build_small,
}
