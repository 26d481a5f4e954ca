"""Live runs on compiled op tapes: each instance compiles its tape once.

The pinned outputs were recorded before the tapes existed and before bhm's
cell block put its bit factor first; a relabeling of ids keeps every
presence pattern, so the live outputs must not move. The snapshot pins, each
run's law key and how many edges its observer saw, were recorded before the
estimators shared one live loop.
"""
from fractions import Fraction

import numpy as np
import pytest

from pairsketch import bhm, harness, heavy_edges, pseudosnapshot, triangle
from pairsketch.heavy_edges import DirectedEdgeStream
from pairsketch.permutation import PermutationSpec


def _directed(n, m, seed):
    rng = np.random.default_rng(seed)
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    idx = rng.choice(len(pool), size=m, replace=False)
    return DirectedEdgeStream(n, tuple(pool[i] for i in idx))


def _bhm(interleaving="shuffle"):
    return bhm.generate_instance(16, Fraction(1, 4), 1, seed=3, interleaving=interleaving)


def _gnp():
    return harness.generate_graph("gnp", {"n": 10, "p": 0.5}, 4)[0]


# name -> (fresh instance, run_single(instance, handle id), exact law, full tape compiles)
ESTIMATORS = {
    "bhm": (
        _bhm,
        lambda inst, h: bhm.run_single(inst, master_seed=7, handle_id=h),
        bhm.terminal_slabs,
        lambda inst: sum(item.bit for item in inst.stream if isinstance(item, bhm.VertexBit)),
    ),
    "heavy": (
        lambda: _directed(8, 20, 2),
        lambda stream, h: heavy_edges.run_single(stream, 2, 2, 7, handle_id=h),
        lambda stream: heavy_edges.terminal_law(stream, 2, 2),
        lambda stream: stream.m,
    ),
    "triangle": (
        _gnp,
        lambda stream, h: triangle.run_single(stream, 2, 7, handle_id=h),
        lambda stream: triangle.terminal_law(stream, 2),
        lambda stream: stream.m,
    ),
}

def _snapshot():
    """(stream, hashes, grid, params, plan): n = 12, 30 edges, hash seed 7,
    kappa 2, eps 1/2, class pair (3, 1)."""
    rng = np.random.default_rng(2)
    pool = [(u, v) for u in range(1, 13) for v in range(1, 13) if u != v]
    stream = DirectedEdgeStream(12, tuple(pool[i] for i in rng.choice(len(pool), 30, replace=False)))
    grid = pseudosnapshot.DegreeGrid.from_eps(12, "1/2")
    hashes = pseudosnapshot.HashOracles(7, 2, "1/2")
    params = pseudosnapshot.SnapshotParams(2, "1/2", ("-1", "0"), (3, 1))
    return stream, hashes, grid, params, pseudosnapshot.build_plan(stream, hashes, grid, params)


def _snapshot_run(inst, h):
    """(law key, how many edges the observer saw) of one snapshot run."""
    *args, plan = inst
    edges = []
    est = pseudosnapshot.run_single(
        *args, 7, handle_id=h, plan=plan, observer=lambda k, mem: edges.append(k)
    )
    return est.key, len(edges)


N = None
E, C = ("StreamEnd", None, 0), ("Cleanup", None, 0)
PINNED = {
    "bhm-shuffle": [
        1, N, N, N, 1, 1, N, N, 0, 1, 1, N, 1, 1, 0, 1, 0, N, N, N,
        N, 1, N, N, N, N, N, N, 1, N, N, N, N, N, 1, N, 1, 1, 1, N,
    ],
    "bhm-edges-first": [
        1, N, N, N, 1, 1, N, N, 0, 1, 1, N, 1, 1, 0, 1, 0, N, N, N,
        N, 1, N, N, N, N, N, N, 1, N, N, N, N, N, 1, N, 1, 1, 1, N,
    ],
    "bhm-bits-first": [
        0, N, 1, N, N, N, N, N, 1, 0, 1, N, N, 1, 1, 1, 0, 1, N, N,
        N, N, N, N, 1, 1, 1, 1, 1, N, N, N, N, N, 1, N, 1, N, 1, N,
    ],
    "heavy": [
        40, 0, 40, 0, 0, 0, 0, 40, 40, 40, 40, 0, 0, 0, 40, 40, 40, 0, 0, 0,
        0, 40, 40, 0, 40, 0, 40, 0, 0, 0, 40, 0, 0, 0, 40, 0, 0, 40, 40, 0,
    ],
    "triangle": [
        38, -38, 38, 0, 0, -38, 0, 38, 38, 38, 38, 38, -38, -38, 38, 38, 38, 0, 0, 0,
        0, -38, 38, 38, 0, 0, 38, 0, -38, 0, 38, 0, 0, 0, 38, 0, 0, 38, 38, 0,
    ],
    "snapshot": [
        (E, 30), (E, 30), (C, 21), (E, 30), (C, 26), (E, 30), (("Minus", (0, 1), -3840), 21),
        (E, 30), (E, 30), (E, 30), (E, 30), (C, 14), (E, 30), (E, 30), (C, 28), (C, 24),
        (C, 23), (C, 16), (E, 30), (C, 12), (E, 30), (C, 23), (("Plus", (1, 1), 3840), 11),
        (E, 30), (E, 30), (E, 30), (E, 30), (E, 30), (C, 16), (E, 30), (E, 30), (C, 16),
        (C, 14), (E, 30), (C, 27), (E, 30), (E, 30), (E, 30), (C, 18), (C, 18),
    ],
}


@pytest.mark.parametrize("name", PINNED)
def test_live_outputs_are_pinned(name):
    if name == "snapshot":
        inst, run = _snapshot(), _snapshot_run
    elif name.startswith("bhm-"):
        inst = _bhm(name[len("bhm-"):])
        run = ESTIMATORS["bhm"][1]
    else:
        make, run = ESTIMATORS[name][:2]
        inst = make()
    assert [run(inst, h) for h in range(40)] == PINNED[name]


@pytest.fixture
def compiles(monkeypatch):
    """A counter of PermutationSpec constructions."""
    count = [0]
    post_init = PermutationSpec.__post_init__

    def counting(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(PermutationSpec, "__post_init__", counting)
    return count


def _cost(compiles, fn):
    before = compiles[0]
    fn()
    return compiles[0] - before


@pytest.mark.parametrize("name", ESTIMATORS)
def test_copies_on_one_instance_compile_one_tape(name, compiles):
    make, run, law, tape_len = ESTIMATORS[name]
    # each copy alone, on a fresh instance, compiles the ops it reaches
    cold = [_cost(compiles, lambda h=h: run(make(), h)) for h in range(10)]
    assert max(cold) == tape_len(make()) > 0  # some copy runs the whole stream
    inst = make()
    assert _cost(compiles, lambda: [run(inst, h) for h in range(10)]) == max(cold)
    assert _cost(compiles, lambda: run(inst, 10)) == 0
    assert _cost(compiles, lambda: law(inst)) == 0


@pytest.mark.parametrize("name", ESTIMATORS)
def test_warm_instance_outputs_equal_cold_ones(name):
    make, run = ESTIMATORS[name][:2]
    warm = make()
    first = [run(warm, h) for h in range(30)]
    assert [run(warm, h) for h in range(30)] == first
    assert [run(make(), h) for h in range(30)] == first
    assert len(set(first)) > 1


@pytest.mark.parametrize("name", ["bhm", "heavy"])
def test_law_on_a_warm_instance_equals_a_cold_one(name):
    make, run, law = ESTIMATORS[name][:3]
    warm = make()
    for h in range(5):
        run(warm, h)
    assert law(warm) == law(make())
