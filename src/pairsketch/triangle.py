"""Streaming estimator for damped triangle counts (Kallaugher, FOCS 2021).

A triangle closes when its last edge arrives. Write its apex a and its
closing edge (v, w), with {a, v} arriving before {a, w}; d_v counts the
v-edges that arrive strictly between {a, v} and the closing edge, and d_w
the w-edges strictly between {a, w} and the closing edge. With sampling
period k, ``oracle_t_split`` computes the split T = T_less + T_greater
exactly, where T_less = sum over triangles of (1 - 1/k)^(d_v + d_w).
``run_single`` implements the sketch-based estimator whose expectation is
exactly T_less, and ``terminal_law`` gives its exact output law.

The estimator starts one sketch on 2m scratch members of a universe of
ordered vertex pairs plus scratch. Each edge (u, v) is selected with
probability 1/k; a selected edge is first probed by the pair queries
((w, u), (w, v)) over all vertices w. Every edge then swaps two scratch
members into (u, v) and (v, u). A Plus hit reports +k*m, a Minus hit -k*m,
and a full pass 0.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import InvalidParamsError, ValidationError
from .permutation import PermutationSpec, SwapStage
from .sketch import Law, QueryOutcome, create, fire_probs
from .tape import Tape
from .universe import Block, IntRange, UniverseSpec


@dataclass(frozen=True)
class EdgeStream:
    """Simple undirected graph given as an arrival-ordered edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"vertex count {self.n} must be positive")
        object.__setattr__(
            self, "edges", tuple((int(u), int(v)) for u, v in self.edges)
        )
        seen: set[frozenset[int]] = set()
        for i, (u, v) in enumerate(self.edges):
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValidationError(f"edge {i + 1} ({u}, {v}) leaves [1, {self.n}]", i)
            if u == v:
                raise ValidationError(f"edge {i + 1} is a self-loop at {u}", i)
            key = frozenset((u, v))
            if key in seen:
                raise ValidationError(f"edge {i + 1} ({u}, {v}) repeats an earlier edge", i)
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _tape(self) -> Tape:
        """Every triangle run's per-edge swap (see ``_edge_swap``), compiled once."""
        universe = triangle_universe(self)
        off = universe.block_offset("scratch")
        members = range(off, off + 2 * self.m)
        return Tape(universe, members, self.m, partial(_edge_swap, self.edges, self.n, universe))


@dataclass(frozen=True)
class TriangleOracleReport:
    T: int
    T_less: Fraction
    T_greater: Fraction
    per_triangle: tuple[tuple[int, int, int, int, int, Fraction], ...]


@dataclass(frozen=True)
class TriangleParams:
    k: int
    T_prime: float
    Delta_E: float
    eps: float
    delta: float
    repetitions: tuple[int, int] | None = None  # (copies per group, groups)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidParamsError(f"k must be >= 1, got {self.k}")
        if not (0 < self.eps <= 1 and 0 < self.delta <= 1):
            raise InvalidParamsError("eps and delta must lie in (0, 1]")
        if self.T_prime <= 0 or self.Delta_E <= 0:
            raise InvalidParamsError("T_prime and Delta_E must be positive")
        if self.repetitions is not None:
            copies, groups = self.repetitions
            if copies < 1 or groups < 1:
                raise InvalidParamsError("repetitions must be positive")


def choose_k(T_prime: float, m: int, Delta_E: float) -> int:
    """Sampling period balancing hit rate against damping."""
    if T_prime <= 0 or m <= 0 or Delta_E <= 0:
        raise InvalidParamsError("choose_k needs positive inputs")
    return max(1, round(T_prime**0.4 * Delta_E**0.4 / m**0.2))


# -- exact oracle ---------------------------------------------------------------


def oracle_t_split(stream: EdgeStream, k: int) -> TriangleOracleReport:
    """Exact triangle split in rational arithmetic.

    Each triangle is found once, at its closing edge, through its apex: an
    earlier neighbour of both endpoints. ``per_triangle`` rows are
    (apex, v, w, d_v, d_w, weight), ordered by the triangle's sorted vertices.
    """
    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    arrival: list[dict[int, int]] = [{} for _ in range(stream.n + 1)]
    incident: list[list[int]] = [[] for _ in range(stream.n + 1)]
    damp = Fraction(k - 1, k)
    rows = {}
    for a3, (x, y) in enumerate(stream.edges, start=1):
        for apex in arrival[x].keys() & arrival[y].keys():
            (a1, v), (a2, w) = sorted(((arrival[x][apex], x), (arrival[y][apex], y)))
            d_v = len(incident[v]) - bisect_right(incident[v], a1)
            d_w = len(incident[w]) - bisect_right(incident[w], a2)
            rows[tuple(sorted((apex, x, y)))] = (apex, v, w, d_v, d_w, damp ** (d_v + d_w))
        arrival[x][y] = arrival[y][x] = a3
        incident[x].append(a3)
        incident[y].append(a3)
    per_triangle = tuple(rows[key] for key in sorted(rows))
    total_less = sum((row[5] for row in per_triangle), Fraction(0))
    T = len(per_triangle)
    return TriangleOracleReport(T, total_less, T - total_less, per_triangle)


# -- estimator -------------------------------------------------------------------


def triangle_universe(stream: EdgeStream) -> UniverseSpec:
    return UniverseSpec(
        (
            Block("pair", (IntRange(1, stream.n), IntRange(1, stream.n))),
            Block("scratch", (IntRange(1, 2 * stream.m),)),
        )
    )


def _pair_id(n: int, a: int, b: int) -> int:
    """Id of pair (a, b); the pair block comes first, at offset 0."""
    return (a - 1) * n + (b - 1)


def _edge_swap(edges, n: int, universe: UniverseSpec, k: int) -> tuple[PermutationSpec]:
    """Edge k = (u, v) swaps two fresh scratch ids into (u, v) and (v, u)."""
    u, v = edges[k]
    fresh = universe.block_offset("scratch") + 2 * k
    pairs = ((fresh, _pair_id(n, u, v)), (fresh + 1, _pair_id(n, v, u)))
    return (PermutationSpec(universe, (SwapStage(pairs),)),)


def _g_rng(seed: int, handle_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, handle_id, 2]))


def run_single(
    stream: EdgeStream,
    k: int,
    seed: int,
    *,
    handle_id: int = 0,
    observer: Callable[[int, set[int]], None] | None = None,
) -> int:
    """One estimator pass. Returns +-k*m on a hit, else 0.

    Every edge consumes one selection draw whether or not it is used, so the
    selection pattern is a function of (seed, handle_id) alone. Queries run
    before the edge's own insertion. ``observer`` (test hook) is called with
    (edge index, member ids) after each completed edge while the sketch is
    alive.
    """
    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    m = stream.m
    if m == 0:
        return 0
    n, tape = stream.n, stream._tape
    handle = create(tape.universe, tape.members, master_seed=seed, handle_id=handle_id)
    g = _g_rng(seed, handle_id)
    swaps = iter(tape)  # an edge's swap is compiled only once its queries miss
    for ell, (u, v) in enumerate(stream.edges, start=1):
        selected = g.random() * k < 1.0
        if selected:
            for w in range(1, n + 1):
                out = handle.query_pair(_pair_id(n, w, u), _pair_id(n, w, v))
                if out is not QueryOutcome.BOT:
                    return out.sign * k * m
        handle.update(next(swaps))
        if observer is not None:
            observer(ell, handle.debug_members())
    return 0


def estimate(stream: EdgeStream, params: TriangleParams, *, master_seed: int = 0) -> float:
    """Median of group means of independent run_single copies."""
    copies, groups = _repetitions(stream, params)
    runs = [run_single(stream, params.k, master_seed, handle_id=h) for h in range(copies * groups)]
    return float(np.median(np.reshape(runs, (groups, copies)).mean(axis=1)))


def estimate_sampled(
    stream: EdgeStream, params: TriangleParams, *, master_seed: int = 0
) -> float:
    """Same aggregation as ``estimate`` but drawing runs from their exact law."""
    copies, groups = _repetitions(stream, params)
    draws = sample_outputs(stream, params.k, master_seed, copies * groups)
    means = draws.reshape(groups, copies).mean(axis=1)
    return float(np.median(means))


def _repetitions(stream: EdgeStream, params: TriangleParams) -> tuple[int, int]:
    if params.repetitions is not None:
        return params.repetitions
    km = params.k * stream.m
    copies = max(1, math.ceil(16 * (km / (params.eps * params.T_prime)) ** 2))
    groups = max(1, math.ceil(8 * math.log(1 / params.delta)) if params.delta < 1 else 1)
    return copies, groups


# -- exact terminal law ------------------------------------------------------------


def terminal_law(stream: EdgeStream, k: int) -> Law:
    """Exact output law of run_single, from one pass over the stream.

    Edge ell = (u, v) is selected with probability 1/k, independently of the
    earlier selections that fix which pairs are present when it queries.
    (w, u) is present at ell iff {w, u} arrived earlier and none of the d
    u-edges strictly between them was selected: probability q^d, q = 1 - 1/k.
    A u-window and a v-window share no edge, so for a common earlier
    neighbour w both pairs are present with probability q^(d_u(w) + d_v(w)).
    Summed over w, that is B; summed over all earlier neighbours of u alone,
    A_u = sum of q^i for i below u's earlier degree. So ell contributes
    (1/k) * [B * P(both) + (A_u + A_v - 2B) * P(one)] to each sign, with
    P(.) the fire probabilities of ``FIRE_LAW`` at |T0| = 2m. The atoms come
    in the order +km, -km, 0, each present only with positive mass.
    """
    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    m = stream.m
    if m == 0:
        return Law({0: Fraction(1)})
    q = 1 - Fraction(1, k)
    powers = [Fraction(1)]
    rank: list[dict[int, int]] = [{} for _ in range(stream.n + 1)]  # neighbour -> edge rank
    reach = [Fraction(0)] * (stream.n + 1)  # A_x over x's edges so far
    # present count -> sum over edges of E[such queries | the edge is selected]
    expected = {2: Fraction(0), 1: Fraction(0)}
    for u, v in stream.edges:
        ru, rv = rank[u], rank[v]
        both = Fraction(0)
        for w in ru.keys() & rv.keys():
            d = len(ru) - 1 - ru[w] + len(rv) - 1 - rv[w]
            while len(powers) <= d:
                powers.append(powers[-1] * q)
            both += powers[d]
        expected[2] += both
        expected[1] += reach[u] + reach[v] - 2 * both
        ru[v] = len(ru)
        rv[u] = len(rv)
        reach[u] = 1 + q * reach[u]
        reach[v] = 1 + q * reach[v]
    atoms = {k * m: Fraction(0), -k * m: Fraction(0)}
    for present, count in expected.items():
        for outcome, p in fire_probs(True, present, 2 * m):
            atoms[outcome.sign * k * m] += count * p / k
    atoms[0] = 1 - sum(atoms.values())
    return Law({x: p for x, p in atoms.items() if p})


def sample_outputs(
    stream: EdgeStream, k: int, master_seed: int, trials: int
) -> np.ndarray:
    """Draw ``trials`` independent run_single outputs from ``terminal_law``."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 3]))
    law = terminal_law(stream, k)
    return np.array(list(law.atoms), dtype=np.int32)[law.sample(rng, trials)]
