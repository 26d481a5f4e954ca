"""Time the ``estimators`` experiments and live runs of two source trees in one process.

    python3 tools/ab_experiments.py PARENT_SRC CHANGE_SRC [--rounds N] [--seed S] \
        [--workdir DIR]

Each ``*_SRC`` is a ``src`` directory holding a ``pairsketch`` package; the two
are imported side by side as ``pairsketch_parent`` and ``pairsketch_change``,
which works because the package imports its own modules only relatively (the
script checks that first). The ``estimators`` and ``small-sketches``
workloads of ``perfbench`` are built with seed S (default 37) on each tree.
The change tree's ``estimators`` build writes the four experiment instance
files to DIR and gives the experiment configs and the m = 30 snapshot stream,
which both sides run; each side's own builds (the parent's under DIR/parent)
give its live runs: the four ``estimators`` live blocks (``live-bhm``,
``live-heavy``, ``live-triangle``, ``live-snapshot``, their copies at
``LIVE_SEED``) and the first ``SMALL_SCRIPTS`` blocks of ``small-sketches``
as one (``live-small``). Each of the N rounds (default 20) then runs the four
experiments, builds the m = 30 snapshot plan and runs the live blocks on both
sides: odd rounds run the parent first, even rounds the change, and each pair
of rounds pins the process to the next CPU it may use. Every experiment's
canonical report bytes and every live run's kept result must be equal on both
sides. The script prints, per op, each side's fastest time in ms and the ratio
change/parent, and the totals of the experiments and of the live blocks.

The traced per-layer rows of ``perfbench`` time whole library calls, so they
cannot show where a set-up or a live-path saving sits; these per-op times can.
"""
from __future__ import annotations

import argparse
import ast
import dataclasses
import enum
import importlib
import importlib.util
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SMALL_SCRIPTS = 20  # the small-sketches blocks timed, of 100 handles each


def relative_only(package: Path) -> None:
    """Raise unless no module of ``package`` imports ``pairsketch`` by its absolute name."""
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level else [])
            if any(name.split(".")[0] == "pairsketch" for name in names):
                raise ValueError(f"{path} imports pairsketch absolutely")


def load(src: Path, name: str):
    """The ``pairsketch`` package under ``src``, imported as ``name`` with its modules."""
    package = src / "pairsketch"
    relative_only(package)
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for path in sorted(package.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return module


def build_workloads(pkg, seed: int, workdir: Path) -> dict:
    """The ``estimators`` and ``small-sketches`` workloads, by name, built on ``pkg``.

    ``perfbench`` imports ``pairsketch`` by name, so for the builds that name
    stands for ``pkg``; the modules imported before are restored after them."""
    def ours(key: str) -> bool:
        return key.split(".")[0] in ("pairsketch", "perfbench")

    saved = {key: sys.modules.pop(key) for key in [k for k in sys.modules if ours(k)]}
    name = pkg.__name__
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        sys.modules["pairsketch" + key[len(name):]] = sys.modules[key]
    sys.path.insert(0, str(ROOT))
    try:
        workloads = importlib.import_module("perfbench.workloads")
        return {wl: workloads.build(wl, seed, workdir) for wl in ("estimators", "small-sketches")}
    finally:
        sys.path.remove(str(ROOT))
        for key in [k for k in sys.modules if ours(k)]:
            del sys.modules[key]
        sys.modules.update(saved)


def experiment_inputs(change, wl):
    """The experiment configs of the ``estimators`` workload ``wl`` built on
    ``change``, as dicts by label, and the m = 30 snapshot stream's edges and
    parameters."""
    configs = {}
    for op in wl.ops:
        if op.kind == "experiment":  # the config the op's closure runs
            (config,) = [cell.cell_contents for cell in op.run.__closure__
                         if isinstance(cell.cell_contents, change.harness.ExperimentConfig)]
            configs[op.label] = config.to_dict()
    return configs, wl.inputs["snapshot"]["edges"], wl.params["snapshot"]


def plain(value):
    """``value`` with enums as their values, dataclasses as their fields and sets
    sorted, so that results of the two trees' own classes compare."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return tuple(plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (set, frozenset)):
        return sorted(map(plain, value))
    if isinstance(value, (tuple, list)):
        return tuple(map(plain, value))
    return value


def live_ops(workloads: dict) -> dict:
    """Label -> zero-argument call of each live block of one side's workloads,
    returning the block's results reduced by its ``keep``. The snapshot plan the
    snapshot runs read is built here, once."""
    def block(ops):
        return lambda: [op.keep(op.run(h)) for op in ops for h in range(op.copies)]

    est = workloads["estimators"].ops
    for op in est:
        if op.kind == "prep":
            op.run(0)
    ops = {f"live-{op.label}": block([op]) for op in est if op.kind == "live"}
    small = [op for op in workloads["small-sketches"].ops if op.kind == "live"]
    ops["live-small"] = block(small[:SMALL_SCRIPTS])
    return ops


def side_ops(pkg, configs: dict, edges, p: dict, workloads: dict) -> dict:
    """Label -> zero-argument call of each timed op of one side; an experiment
    returns its canonical report text, a live block its kept results."""
    harness, snap = pkg.harness, pkg.pseudosnapshot

    def experiment(config):
        return lambda: harness.canonical_json(harness.run_experiment(config).to_dict())

    ops = {label: experiment(harness.ExperimentConfig.from_dict(c)) for label, c in configs.items()}
    stream = pkg.heavy_edges.DirectedEdgeStream(p["n"], edges)
    grid = snap.DegreeGrid.from_eps(p["n"], p["eps"])
    hashes = snap.HashOracles(p["hash_seed"], p["kappa"], p["eps"])
    sp = snap.SnapshotParams(kappa=p["kappa"], eps=p["eps"], thresholds=tuple(p["thresholds"]),
                             class_pair=tuple(p["class_pair"]))
    ops["plan m=30"] = lambda: snap.build_plan(stream, hashes, grid, sp) and None
    return {**ops, **live_ops(workloads)}


def run(trees: dict, rounds: int, seed: int, workdir: Path) -> dict:
    """Best seconds per side and op over ``rounds`` alternating rounds."""
    pkgs = {side: load(trees[side], f"pairsketch_{side}") for side in SIDES}
    built = {side: build_workloads(pkgs[side], seed, workdir / side if side == "parent"
                                   else workdir) for side in SIDES}
    configs, edges, p = experiment_inputs(pkgs["change"], built["change"]["estimators"])
    ops = {side: side_ops(pkgs[side], configs, edges, p, built[side]) for side in SIDES}
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    best = {side: dict.fromkeys(ops[side], float("inf")) for side in SIDES}
    for r in range(rounds):
        if cpus:
            os.sched_setaffinity(0, {cpus[r // 2 % len(cpus)]})  # each order on each CPU
        out = {}
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            for label, call in ops[side].items():
                t0 = time.perf_counter()
                out[side, label] = call()
                best[side][label] = min(best[side][label], time.perf_counter() - t0)
        for label in ops["change"]:
            if plain(out["parent", label]) != plain(out["change", label]):
                raise AssertionError(f"{label} outputs differ between the trees (round {r + 1})")
    if cpus:
        os.sched_setaffinity(0, set(cpus))
    return best


def table(best: dict, totals: dict) -> list[str]:
    """One row per op, then one per total (a label -> the op labels it sums)."""
    rows = [f"{'op':<14} {'parent ms':>10} {'change ms':>10} {'ratio':>7}"]
    sums = {name: tuple(sum(best[side][label] for label in labels) for side in SIDES)
            for name, labels in totals.items()}
    for label, (a, b) in [*((k, (best["parent"][k], best["change"][k])) for k in best["parent"]),
                          *sums.items()]:
        rows.append(f"{label:<14} {a * 1e3:>10.3f} {b * 1e3:>10.3f} {b / a:>7.3f}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=37)
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        best = run({"parent": args.parent, "change": args.change}, args.rounds, args.seed,
                   args.workdir or Path(tmp))
    live = [label for label in best["parent"] if label.startswith("live-")]
    experiments = [label for label in best["parent"] if label not in live + ["plan m=30"]]
    print(f"best of {args.rounds} alternating rounds, seed {args.seed}; outputs equal")
    print("\n".join(table(best, {"experiments": experiments, "live": live})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
