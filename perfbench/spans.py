"""In-memory span recorder that wraps pairsketch from the outside.

The benchmark changes no library code, so a traced round rebinds the public
functions of each module to recording wrappers and restores them afterwards.
Functions that modules import by name (``from .sketch import create``) are
rebound in every module that holds them, because callers look the name up in
their own module. A span is ``(name, start, end, parent, run id)``; the run id
is the index of the benchmark op that caused it. Spans stay in memory until
the round ends and are written out once.
"""
from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    """Records nested spans and per-layer counts while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: Counter[str] = Counter()
        self.run_id = -1
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span named ``name`` per call.

        ``count(counts, args, kwargs, result)`` may add layer counts from the
        call.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.run.append(self.run_id)
            self._open.append(idx)
            self.start.append(perf_counter())
            self.end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._open.pop()
            self.counts[calls] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper, package: str = "pairsketch") -> None:
        """Replace ``original`` by ``wrapper`` in every module of ``package``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations add. The self times of a tree sum to its root's duration.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def _count_members(counts, args, kwargs, handle) -> None:
    counts["sketch.create.members"] += handle.size


def _count_fires(counts, args, kwargs, outcome) -> None:
    counts["sketch.query.fires"] += outcome.fires()


def _count_replay_ops(counts, args, kwargs, trace) -> None:
    counts["sketch.replay.ops"] += len(args[2] if len(args) > 2 else kwargs["script"])


def _count_draws(counts, args, kwargs, out) -> None:
    counts["triangle.sample_outputs.draws"] += len(out)


def _count_outcomes(counts, args, kwargs, dist) -> None:
    counts["qsim.outcomes"] += len(dist.entries)


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports on (see BENCHMARK.json)."""
    from pairsketch import bhm, harness, heavy_edges, permutation, pseudosnapshot, qsim, sketch
    from pairsketch import triangle

    functions = [
        (sketch, "create", "sketch.create", _count_members),
        (sketch, "replay_noiseless", "sketch.replay", _count_replay_ops),
        (qsim, "enumerate_distribution", "qsim.enumerate", _count_outcomes),
        (qsim, "_enumerate_stochastic", "qsim.enumerate.stochastic", None),
        (qsim, "_enumerate_quantum", "qsim.enumerate.quantum", None),
        (pseudosnapshot, "build_plan", "pseudosnapshot.build_plan", None),
        (pseudosnapshot, "terminal_law", "pseudosnapshot.terminal_law", None),
        (pseudosnapshot, "lemma_expectation", "pseudosnapshot.oracle", None),
        (pseudosnapshot, "pseudosnapshot_exact", "pseudosnapshot.oracle", None),
        (pseudosnapshot, "run_single", "pseudosnapshot.run_single", None),
        (bhm, "terminal_slabs", "bhm.terminal_slabs", None),
        (bhm, "sample_outputs", "bhm.sample", None),
        (bhm, "sample_majority", "bhm.sample", None),
        (bhm, "run_single", "bhm.run_single", None),
        (heavy_edges, "terminal_law", "heavy_edges.terminal_law", None),
        (heavy_edges, "sample_outputs", "heavy_edges.sample_outputs", None),
        (heavy_edges, "oracle_heavy_count", "heavy_edges.oracle", None),
        (heavy_edges, "run_single", "heavy_edges.run_single", None),
        (triangle, "sample_outputs", "triangle.sample_outputs", _count_draws),
        (triangle, "oracle_t_split", "triangle.oracle", None),
        (triangle, "run_single", "triangle.run_single", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "_load_instance", "harness.load", None),
    ]
    for module, attr, name, count in functions:
        original = getattr(module, attr)
        tracer.rebind(original, tracer.wrap(name, original, count))

    methods = [
        (sketch.SketchHandle, "update", "sketch.update", None),
        (sketch.SketchHandle, "query_one", "sketch.query", _count_fires),
        (sketch.SketchHandle, "query_pair", "sketch.query", _count_fires),
        (permutation.PermutationSpec, "__post_init__", "permutation.compile", None),
        (pseudosnapshot.SnapshotLaw, "sample", "pseudosnapshot.law_sample", None),
    ]
    for cls, attr, name, count in methods:
        tracer.patch(cls, attr, tracer.wrap(name, cls.__dict__[attr], count))
