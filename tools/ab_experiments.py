"""Time the ``estimators`` experiments of two source trees in one process.

    python3 tools/ab_experiments.py PARENT_SRC CHANGE_SRC [--rounds N] [--seed S] \
        [--workdir DIR]

Each ``*_SRC`` is a ``src`` directory holding a ``pairsketch`` package; the two
are imported side by side as ``pairsketch_parent`` and ``pairsketch_change``,
which works because the package imports its own modules only relatively (the
script checks that first). The ``estimators`` workload of ``perfbench`` is
built once, on the change tree, with seed S (default 37): it writes the four
experiment instance files to DIR and gives the experiment configs and the
m = 30 snapshot stream. Each of the N rounds (default 20) then runs the four
experiments and builds the m = 30 snapshot plan on both sides: odd rounds run
the parent first, even rounds the change, and each pair of rounds pins the
process to the next CPU it may use. Every experiment's canonical report bytes must be
equal on both sides. The script prints, per experiment, the plan and their
total, each side's fastest time in ms and the ratio change/parent.

The traced per-layer rows of ``perfbench`` time whole library calls, so they
cannot show where a set-up saving sits; these per-experiment times can.
"""
from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


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


def build_inputs(change, seed: int, workdir: Path):
    """Build the ``estimators`` workload on ``change``: the experiment configs, as
    dicts by label, and the m = 30 snapshot stream's edges and parameters.

    ``perfbench`` imports ``pairsketch`` by name, so for the build that name
    stands for ``change``; the modules imported before are restored after it."""
    def ours(key: str) -> bool:
        return key.split(".")[0] in ("pairsketch", "perfbench")

    saved = {key: sys.modules.pop(key) for key in [k for k in sys.modules if ours(k)]}
    name = change.__name__
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        sys.modules["pairsketch" + key[len(name):]] = sys.modules[key]
    sys.path.insert(0, str(ROOT))
    try:
        workloads = importlib.import_module("perfbench.workloads")
        wl = workloads.build("estimators", seed, workdir)
    finally:
        sys.path.remove(str(ROOT))
        for key in [k for k in sys.modules if ours(k)]:
            del sys.modules[key]
        sys.modules.update(saved)
    configs = {}
    for op in wl.ops:
        if op.kind == "experiment":  # the config the op's closure runs
            (config,) = [cell.cell_contents for cell in op.run.__closure__
                         if isinstance(cell.cell_contents, change.harness.ExperimentConfig)]
            configs[op.label] = config.to_dict()
    return configs, wl.inputs["snapshot"]["edges"], workloads.PARAMS["estimators"]["snapshot"]


def side_ops(pkg, configs: dict, edges, p: dict) -> dict:
    """Label -> zero-argument call of each timed op of one side; an experiment
    returns its canonical report text."""
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
    return ops


def run(trees: dict, rounds: int, seed: int, workdir: Path) -> dict:
    """Best seconds per side and op over ``rounds`` alternating rounds."""
    pkgs = {side: load(trees[side], f"pairsketch_{side}") for side in SIDES}
    configs, edges, p = build_inputs(pkgs["change"], seed, workdir)
    ops = {side: side_ops(pkgs[side], configs, edges, p) for side in SIDES}
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
        for label in configs:
            if out["parent", label] != out["change", label]:
                raise AssertionError(f"{label} reports differ between the trees (round {r + 1})")
    if cpus:
        os.sched_setaffinity(0, set(cpus))
    return best


def table(best: dict, experiments) -> list[str]:
    rows = [f"{'op':<12} {'parent ms':>10} {'change ms':>10} {'ratio':>7}"]
    total = {side: sum(best[side][label] for label in experiments) for side in SIDES}
    for label, (a, b) in [*((k, (best["parent"][k], best["change"][k])) for k in best["parent"]),
                          ("experiments", (total["parent"], total["change"]))]:
        rows.append(f"{label:<12} {a * 1e3:>10.3f} {b * 1e3:>10.3f} {b / a:>7.3f}")
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
    experiments = [label for label in best["parent"] if label != "plan m=30"]
    print(f"best of {args.rounds} alternating rounds, seed {args.seed}; reports equal")
    print("\n".join(table(best, experiments)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
