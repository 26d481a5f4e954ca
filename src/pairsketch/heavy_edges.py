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

from .errors import InvalidParamsError
from .permutation import CyclicShift, PermutationSpec, SwapStage, frame_id
from .sketch import Law, QueryGroup, QueryPair, ScriptOp, Tape, Update, create, replay_law
from .sketch import count_param, edge_list, purpose_rng, run_tagged, signed_key
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
        n, edges = edge_list(self.n, self.edges, directed=True)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _universe(self) -> UniverseSpec:
        return heavy_universe(self)

    @cached_property
    def _updates(self) -> tuple:
        """Every heavy-edge pass's per-edge (update in framed ids, swaps only; its
        lines' rotations after the edge) (``_framed_update``); each threshold
        pair's tape (``_framed_edges``) reads them."""
        return _framed_update(self.edges, self.n, self._universe)

    @cached_property
    def _steps(self) -> dict[tuple[int, int], Tape]:
        """``_framed_edges`` per (d_H, d_T), each made on its first call."""
        return {}

    @cached_property
    def _laws(self) -> dict[tuple[int, int], Law]:
        """``terminal_law`` per (d_H, d_T), each replayed on its first call."""
        return {}


@dataclass(frozen=True)
class HeavyParams:
    d_H: int
    d_T: int
    eps: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_H", count_param("d_H", self.d_H, 1))
        object.__setattr__(self, "d_T", count_param("d_T", self.d_T, 1))
        if not 0 < self.eps <= 1:
            raise InvalidParamsError("eps must lie in (0, 1]")


def oracle_heavy_count(stream: DirectedEdgeStream, d_H: int, d_T: int) -> int:
    """Exact heavy-edge count by maintaining running incident degrees."""
    d_H, d_T = count_param("d_H", d_H, 1), count_param("d_T", d_T, 1)
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


def _check_thresholds(stream: DirectedEdgeStream, d_H, d_T) -> tuple[int, int]:
    """(d_H, d_T) as ints, once both are checked against the stack positions."""
    d_H, d_T = count_param("d_H", d_H, 1), count_param("d_T", d_T, 1)
    top = 2 * stream.n - 1
    if not (d_H <= top and d_T <= top):
        raise InvalidParamsError(
            f"thresholds must lie in [1, {top}] (stack positions); running degrees "
            f"of a simple directed stream never exceed {2 * (stream.n - 1)} anyway"
        )
    return d_H, d_T


def _slot(n: int, w: int, label: int, pos: int) -> int:
    """Id of stack slot (w, label, pos); the stack block comes first, at offset 0."""
    return (w - 1) * 4 * n + label * 2 * n + pos


def _fresh_pairs(edges, n: int, universe: UniverseSpec, k: int) -> tuple[tuple[int, int], ...]:
    """Edge k's swap pairs: four fresh scratch ids, and position 0 of u's and v's H and T stacks."""
    u, v = edges[k]
    fresh = universe.block_offset("scratch") + 4 * k
    slots = (_slot(n, u, 0, 0), _slot(n, u, 1, 0), _slot(n, v, 0, 0), _slot(n, v, 1, 0))
    return tuple(zip(range(fresh, fresh + 4), slots))


def _edge_stages(edges, n: int, universe: UniverseSpec, k: int) -> tuple[SwapStage, CyclicShift]:
    """Edge k's literal update: its fresh swap, then both endpoints' stacks shift up by one."""
    swap = SwapStage(_fresh_pairs(edges, n, universe, k))
    return swap, CyclicShift("stack", 1, (frozenset(edges[k]), None))


def _framed_update(edges, n: int, universe: UniverseSpec) -> tuple:
    """Each edge's update in framed ids: its swap, framed through the rotations of the
    earlier edges, and the rotation its shift leaves on the endpoints' four stack lines.
    ``rot`` maps a line's first id to its rotation, its vertex's running degree mod 2n."""
    mod, rot, items = 2 * n, {}, []
    for k in range(len(edges)):
        pairs = _fresh_pairs(edges, n, universe, k)
        swap = tuple((a, frame_id(line, line, rot.get(line, 0), mod)) for a, line in pairs)
        turned = {line: (rot.get(line, 0) + 1) % mod for _, line in pairs}
        rot.update(turned)
        items.append((PermutationSpec(universe, (SwapStage(swap),)), turned))
    return tuple(items)


def _framed_edges(stream: DirectedEdgeStream, d_H: int, d_T: int) -> Tape:
    """A pass's declaration: per edge its framed update, then its probe as a
    one-query pair group (tag None); a Plus or Minus hit keys +-2m, a pass
    without one 0.

    The probed slots (u, H, d_H) and (v, T, d_T) are framed through the
    rotations of their lines after the edge, read off the stream's
    ``_updates``, which serve every threshold pair. The stream keeps one tape
    per pair, so every run and the law on that pair frame each edge once.
    """
    steps = stream._steps
    if (d_H, d_T) not in steps:
        n, m, mod, universe, items = stream.n, stream.m, 2 * stream.n, stream._universe, []
        for (u, v), (perm, turned) in zip(stream.edges, stream._updates):
            head, tail = _slot(n, u, 0, 0), _slot(n, v, 1, 0)
            x = frame_id(head + d_H, head, turned[head], mod)
            y = frame_id(tail + d_T, tail, turned[tail], mod)
            items.append(((perm, None), (QueryGroup(universe, (x,), (y,)), (None,))))
        off = universe.block_offset("scratch")
        steps[d_H, d_T] = Tape(
            universe, range(off, off + 4 * m), tuple(items), partial(signed_key, 2 * m), 0
        )
    return steps[d_H, d_T]


def build_script(
    stream: DirectedEdgeStream, d_H: int, d_T: int
) -> tuple[UniverseSpec, list[ScriptOp]]:
    """The literal op sequence of a pass, shifts included: per edge one update
    and one pair query. ``run_single`` and ``terminal_law`` apply the same
    sequence with its shifts framed into the swaps and queries (see
    ``_framed_edges``); this is the reference they must agree with."""
    n, universe = stream.n, stream._universe
    script: list[ScriptOp] = []
    for k, (u, v) in enumerate(stream.edges):
        perm = PermutationSpec(universe, _edge_stages(stream.edges, n, universe, k))
        script += (Update(perm), QueryPair(_slot(n, u, 0, d_H), _slot(n, v, 1, d_T)))
    return universe, script


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
    edge's update and query while the sketch is alive. The run applies the
    framed ops (see ``build_script``), so the ids are the framed ones: the
    literal member set framed by the shifts of edges 1..ell.
    """
    d_H, d_T = _check_thresholds(stream, d_H, d_T)
    if stream.m == 0:
        return 0
    tape = _framed_edges(stream, d_H, d_T)
    handle = create(tape.universe, tape.members, master_seed=seed, handle_id=handle_id)
    return run_tagged(handle, tape, observer)


def _copies(stream: DirectedEdgeStream, params: HeavyParams, copies: int | None) -> int:
    """The estimators' copy count, once their params are checked against ``stream``."""
    copies = math.ceil(12 / params.eps**2) if copies is None else count_param("copies", copies, 1)
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
    """Exact output law, derived by replaying the run's framed op sequence noiselessly.

    The trajectory is fully deterministic, so each query's unconditional fire
    probability depends only on the initial size 4m and its presence pattern;
    the replay's fire atoms sum to the masses of +2m and -2m. The atoms come
    in the order +2m, -2m, 0, and each has positive mass: every query that can
    fire can fire Plus, which ``FIRE_LAW`` lists first, and at most 2m of the
    4m members are ever deleted, so a pass survives with probability >= 1/2.
    The stream builds each threshold pair's law on the first call and keeps it.
    """
    d_H, d_T = _check_thresholds(stream, d_H, d_T)
    laws = stream._laws
    if (d_H, d_T) not in laws:
        laws[d_H, d_T] = (
            replay_law(_framed_edges(stream, d_H, d_T)) if stream.m else Law({0: Fraction(1)})
        )
    return laws[d_H, d_T]


def sample_outputs(
    stream: DirectedEdgeStream, d_H: int, d_T: int, master_seed: int, trials: int
) -> np.ndarray:
    """Vectorized draws from the exact run_single output law."""
    law = terminal_law(stream, d_H, d_T)
    idx = law.sample(purpose_rng("heavy", master_seed), trials)
    return np.array(list(law.atoms), dtype=np.int32)[idx]


def sample_counts(
    stream: DirectedEdgeStream, d_H: int, d_T: int, master_seed: int, trials: int
) -> np.ndarray:
    """Per-atom counts, in ``terminal_law`` order, of ``trials`` draws from it."""
    return terminal_law(stream, d_H, d_T).draw_counts(purpose_rng("heavy", master_seed), trials)


def estimate_sampled(
    stream: DirectedEdgeStream,
    params: HeavyParams,
    seed: int,
    *,
    copies: int | None = None,
) -> float:
    """Same aggregation as ``estimate``, over the per-atom counts of ``copies``
    runs drawn from their exact law (``sample_counts``)."""
    copies = _copies(stream, params, copies)
    counts = sample_counts(stream, params.d_H, params.d_T, seed, copies)
    law = terminal_law(stream, params.d_H, params.d_T)
    return float(sum(x * int(c) for x, c in zip(law.atoms, counts))) / copies
