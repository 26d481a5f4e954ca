"""Estimator for edges whose endpoints are both locally heavy on arrival.

An edge u -> v of a directed stream is (d_H, d_T)-heavy when, counting the
edge itself, the head u has accumulated at least d_H incident edges and the
tail v at least d_T. ``oracle_heavy_count`` counts such edges exactly.

``run_single`` estimates the count with a single destructive sketch over
per-vertex position stacks plus scratch: each arriving edge swaps four fresh
scratch elements into position 0 of the H and T stacks of its endpoints,
shifts both endpoints' stacks up by one, and then probes
((u, d_H, H), (v, d_T, T)) with one pair query. An element inserted by a
vertex's a-th incident edge sits at position d exactly when the vertex's
running degree reaches a + d - 1, so the probed position is occupied exactly
when the oracle's degree condition holds. A Plus hit reports +2m, Minus
-2m, no hit 0; one-present hits carry both signs with equal probability and
cancel in expectation, leaving E[output] equal to the oracle count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import InvalidParamsError, ValidationError
from .permutation import CyclicShift, PermutationSpec, SwapStage
from .sketch import Law, QueryOutcome, QueryPair, ScriptOp, Update, create, replay_law
from .tape import Tape
from .universe import Block, IntRange, Labels, UniverseSpec


@dataclass(frozen=True)
class DirectedEdgeStream:
    """Directed edges (head, tail) in arrival order; one stack slot per degree.

    Self-loops and repeated directed pairs are rejected: the position factor
    of the stack universe has 2n values, which accommodates running degrees
    only up to 2(n - 1), the maximum of a simple directed stream.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"vertex count {self.n} must be positive")
        object.__setattr__(
            self, "edges", tuple((int(u), int(v)) for u, v in self.edges)
        )
        seen: set[tuple[int, int]] = set()
        for i, (u, v) in enumerate(self.edges):
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValidationError(f"edge {i + 1} ({u}, {v}) leaves [1, {self.n}]", i)
            if u == v:
                raise ValidationError(f"edge {i + 1} is a self-loop at {u}", i)
            if (u, v) in seen:
                raise ValidationError(f"edge {i + 1} ({u} -> {v}) repeats", i)
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _tape(self) -> Tape:
        """Every heavy-edge run's per-edge update (see ``_edge_update``), compiled once."""
        universe = heavy_universe(self)
        off = universe.block_offset("scratch")
        members = range(off, off + 4 * self.m)
        return Tape(universe, members, self.m, partial(_edge_update, self.edges, self.n, universe))


@dataclass(frozen=True)
class HeavyParams:
    d_H: int
    d_T: int
    eps: float

    def __post_init__(self) -> None:
        if self.d_H < 1 or self.d_T < 1:
            raise InvalidParamsError("degree thresholds must be >= 1")
        if not 0 < self.eps <= 1:
            raise InvalidParamsError("eps must lie in (0, 1]")


def oracle_heavy_count(stream: DirectedEdgeStream, d_H: int, d_T: int) -> int:
    """Exact heavy-edge count by maintaining running incident degrees."""
    if d_H < 1 or d_T < 1:
        raise InvalidParamsError("degree thresholds must be >= 1")
    deg = [0] * (stream.n + 1)
    count = 0
    for u, v in stream.edges:
        deg[u] += 1
        deg[v] += 1
        if deg[u] >= d_H and deg[v] >= d_T:
            count += 1
    return count


# -- sketch run -----------------------------------------------------------------


def heavy_universe(stream: DirectedEdgeStream) -> UniverseSpec:
    return UniverseSpec(
        (
            Block(
                "stack",
                (IntRange(1, stream.n), Labels(("H", "T")), IntRange(0, 2 * stream.n - 1)),
            ),
            Block("scratch", (IntRange(1, 4 * stream.m),)),
        )
    )


def _check_thresholds(stream: DirectedEdgeStream, d_H: int, d_T: int) -> None:
    top = 2 * stream.n - 1
    if not (1 <= d_H <= top and 1 <= d_T <= top):
        raise InvalidParamsError(
            f"thresholds must lie in [1, {top}] (stack positions); running degrees "
            f"of a simple directed stream never exceed {2 * (stream.n - 1)} anyway"
        )


def _slot(n: int, w: int, label: int, pos: int) -> int:
    """Id of stack slot (w, label, pos); the stack block comes first, at offset 0."""
    return (w - 1) * 4 * n + label * 2 * n + pos


def _edge_update(edges, n: int, universe: UniverseSpec, k: int) -> tuple[PermutationSpec]:
    """Edge k's update: four fresh scratch ids swap into position 0 of the H and
    T stacks of both endpoints, then both endpoints' stacks shift up by one."""
    u, v = edges[k]
    fresh = universe.block_offset("scratch") + 4 * k
    slots = (_slot(n, u, 0, 0), _slot(n, u, 1, 0), _slot(n, v, 0, 0), _slot(n, v, 1, 0))
    swap = SwapStage(tuple(zip(range(fresh, fresh + 4), slots)))
    shift = CyclicShift("stack", 1, (frozenset({u, v}), None))
    return (PermutationSpec(universe, (swap, shift)),)


def build_script(
    stream: DirectedEdgeStream, d_H: int, d_T: int
) -> tuple[UniverseSpec, list[ScriptOp]]:
    """The exact op sequence run_single performs (one update + query per edge)."""
    n, tape = stream.n, stream._tape
    script: list[ScriptOp] = []
    for perm, (u, v) in zip(tape, stream.edges):
        script += (Update(perm), QueryPair(_slot(n, u, 0, d_H), _slot(n, v, 1, d_T)))
    return tape.universe, script


def run_single(
    stream: DirectedEdgeStream,
    d_H: int,
    d_T: int,
    seed: int,
    *,
    handle_id: int = 0,
    observer: Callable[[int, set[int]], None] | None = None,
) -> int:
    """One estimator pass; returns +-2m on a hit, else 0.

    ``observer`` (test hook) receives (edge index, member ids) after each
    edge's update and query while the sketch is alive.
    """
    _check_thresholds(stream, d_H, d_T)
    m = stream.m
    if m == 0:
        return 0
    n, tape = stream.n, stream._tape
    handle = create(tape.universe, tape.members, master_seed=seed, handle_id=handle_id)
    for ell, (perm, (u, v)) in enumerate(zip(tape, stream.edges), start=1):
        handle.update(perm)
        out = handle.query_pair(_slot(n, u, 0, d_H), _slot(n, v, 1, d_T))
        if out is not QueryOutcome.BOT:
            return out.sign * 2 * m
        if observer is not None:
            observer(ell, handle.debug_members())
    return 0


def _copies(stream: DirectedEdgeStream, params: HeavyParams, copies: int | None) -> int:
    """The estimators' copy count, once their params are checked against ``stream``."""
    copies = math.ceil(12 / params.eps**2) if copies is None else copies
    if copies < 1:
        raise InvalidParamsError(f"copies must be >= 1, got {copies}")
    _check_thresholds(stream, params.d_H, params.d_T)
    return copies


def estimate(
    stream: DirectedEdgeStream,
    params: HeavyParams,
    seed: int,
    *,
    copies: int | None = None,
) -> float:
    """Mean of independent run_single copies; default count is ceil(12/eps^2)."""
    copies = _copies(stream, params, copies)
    d_H, d_T = params.d_H, params.d_T
    return float(np.mean([run_single(stream, d_H, d_T, seed, handle_id=i) for i in range(copies)]))


# -- exact terminal law ------------------------------------------------------------


def terminal_law(stream: DirectedEdgeStream, d_H: int, d_T: int) -> Law:
    """Exact output law, derived by replaying the real op sequence noiselessly.

    The trajectory is fully deterministic, so each query's unconditional fire
    probability depends only on the initial size 4m and its presence pattern;
    the replay's fire atoms sum to the masses of +2m and -2m. The atoms come
    in the order +2m, -2m, 0, and each has positive mass: every query that can
    fire can fire Plus, which ``FIRE_LAW`` lists first, and at most 2m of the
    4m members are ever deleted, so a pass survives with probability >= 1/2.
    """
    _check_thresholds(stream, d_H, d_T)
    m = stream.m
    if m == 0:
        return Law({0: Fraction(1)})
    universe, script = build_script(stream, d_H, d_T)
    tagged = ((op, None) for op in script)
    return replay_law(universe, stream._tape.members, tagged, lambda _, o: o.sign * 2 * m, 0)


def sample_outputs(
    stream: DirectedEdgeStream, d_H: int, d_T: int, master_seed: int, trials: int
) -> np.ndarray:
    """Vectorized draws from the exact run_single output law."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 4]))
    law = terminal_law(stream, d_H, d_T)
    return np.array(list(law.atoms), dtype=np.int32)[law.sample(rng, trials)]


def estimate_sampled(
    stream: DirectedEdgeStream,
    params: HeavyParams,
    seed: int,
    *,
    copies: int | None = None,
) -> float:
    """Same aggregation as ``estimate``, drawing runs from their exact law."""
    copies = _copies(stream, params, copies)
    return float(np.mean(sample_outputs(stream, params.d_H, params.d_T, seed, copies)))
