"""Streaming estimator for recent-closure triangle counts.

A triangle closes when its last edge arrives. If edges are sampled for
querying with period k, a triangle effectively counts only when no sampled
edge lands on its closing endpoints between the wedge's arrivals and the
closing edge; the damping factor per triangle is (1 - 1/k) raised to the
number of such interposed incident edges. ``oracle_t_split`` computes the
resulting split T = T_less + T_greater exactly; ``run_single`` implements the
sketch-based estimator whose expectation is exactly T_less.

The estimator keeps one sketch over ordered vertex pairs plus a scratch
block. Arrived edges occupy both orientations (u, v) and (v, u); each edge,
with probability 1/k, is probed by pair queries ((w, u), (w, v)) over all
vertices w before it is inserted. A Plus hit reports +k*m, a Minus hit
-k*m, and a full pass 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParamsError, InvariantError, ValidationError
from .permutation import PermutationSpec, SwapStage
from .sketch import QueryOutcome, create
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
                raise ValidationError(f"edge {i + 1} ({u}, {v}) leaves [1, {self.n}]")
            if u == v:
                raise ValidationError(f"edge {i + 1} is a self-loop at {u}")
            key = frozenset((u, v))
            if key in seen:
                raise ValidationError(f"edge {i + 1} ({u}, {v}) repeats an earlier edge")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)


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
    """Brute-force exact triangle split, in rational arithmetic."""
    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    arrival: dict[frozenset[int], int] = {
        frozenset(e): i + 1 for i, e in enumerate(stream.edges)
    }
    incident: dict[int, list[int]] = {v: [] for v in range(1, stream.n + 1)}
    adj: dict[int, set[int]] = {v: set() for v in range(1, stream.n + 1)}
    for i, (u, v) in enumerate(stream.edges):
        incident[u].append(i + 1)
        incident[v].append(i + 1)
        adj[u].add(v)
        adj[v].add(u)

    def between(vertex: int, lo: int, hi: int) -> int:
        return sum(1 for a in incident[vertex] if lo < a < hi)

    damp = Fraction(k - 1, k)
    rows = []
    total_less = Fraction(0)
    for x, y, z in combinations(range(1, stream.n + 1), 3):
        if y not in adj[x] or z not in adj[x] or z not in adj[y]:
            continue
        ordered = sorted(
            ((arrival[frozenset((a, b))], a, b) for a, b in ((x, y), (x, z), (y, z)))
        )
        (a1, p1, q1), (a2, p2, q2), (a3, _, _) = ordered
        apex = ({p1, q1} & {p2, q2}).pop()
        v = ({p1, q1} - {apex}).pop()
        w = ({p2, q2} - {apex}).pop()
        d_v = between(v, a1, a3)
        d_w = between(w, a2, a3)
        t_less = damp ** (d_v + d_w)
        rows.append((apex, v, w, d_v, d_w, t_less))
        total_less += t_less
    T = len(rows)
    return TriangleOracleReport(T, total_less, T - total_less, tuple(rows))


# -- estimator -------------------------------------------------------------------


def triangle_universe(stream: EdgeStream) -> UniverseSpec:
    return UniverseSpec(
        (
            Block("pair", (IntRange(1, stream.n), IntRange(1, stream.n))),
            Block("scratch", (IntRange(1, 2 * stream.m),)),
        )
    )


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
    universe = triangle_universe(stream)
    pair_off = universe.block_offset("pair")
    scratch_off = universe.block_offset("scratch")
    n = stream.n

    def pair_id(a: int, b: int) -> int:
        return pair_off + (a - 1) * n + (b - 1)

    handle = create(
        universe,
        range(scratch_off, scratch_off + 2 * m),
        master_seed=seed,
        handle_id=handle_id,
    )
    g = _g_rng(seed, handle_id)
    for ell, (u, v) in enumerate(stream.edges, start=1):
        selected = g.random() * k < 1.0
        if selected:
            for w in range(1, n + 1):
                out = handle.query_pair(pair_id(w, u), pair_id(w, v))
                if out is not QueryOutcome.BOT:
                    return (1 if out is QueryOutcome.PLUS else -1) * k * m
        handle.update(
            PermutationSpec(
                universe,
                (
                    SwapStage(
                        (
                            (scratch_off + 2 * ell - 2, pair_id(u, v)),
                            (scratch_off + 2 * ell - 1, pair_id(v, u)),
                        )
                    ),
                ),
            )
        )
        if observer is not None:
            observer(ell, handle.debug_members())
    return 0


def estimate(
    stream: EdgeStream,
    params: TriangleParams,
    *,
    master_seed: int = 0,
    runner: Callable[[int], float] | None = None,
) -> float:
    """Median of group means of independent run_single copies."""
    copies, groups = _repetitions(stream, params)
    if stream.m == 0:
        return 0.0
    if runner is None:
        def runner(i: int) -> float:
            return float(run_single(stream, params.k, master_seed, handle_id=i))

    means = []
    for j in range(groups):
        vals = np.array([runner(j * copies + i) for i in range(copies)])
        means.append(float(np.mean(vals)))
    return float(np.median(means))


def estimate_sampled(
    stream: EdgeStream, params: TriangleParams, *, master_seed: int = 0
) -> float:
    """Same aggregation as ``estimate`` but drawing runs from their exact law."""
    copies, groups = _repetitions(stream, params)
    if stream.m == 0:
        return 0.0
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


# -- exact vectorized sampling ----------------------------------------------------


def sample_outputs(
    stream: EdgeStream, k: int, master_seed: int, trials: int
) -> np.ndarray:
    """Draw ``trials`` independent run_single outputs from their exact law.

    For a fixed selection pattern the run is a deterministic script, so each
    query's unconditional fire probability is pinned by the initial size 2m
    and its presence pattern: 1/m for a both-present pair, 1/(4m) per sign
    for a one-present pair. The per-trial work is therefore: draw the
    selection pattern, count both-present and one-present queries via the
    last-selected-incident-edge state, and draw one uniform against the
    resulting three-atom law. Presence of (w, u) at edge ell holds exactly
    when {w, u} arrived earlier and no selected edge incident to u lies
    strictly between.
    """
    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    m = stream.m
    out = np.zeros(trials, dtype=np.int32)
    if m == 0 or trials == 0:
        return out
    n = stream.n
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 3]))

    # static arrival structure
    nbr_arrival: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    arrivals: list[list[int]] = [[] for _ in range(n + 1)]
    prep = []
    for ell, (u, v) in enumerate(stream.edges, start=1):
        common = nbr_arrival[u].keys() & nbr_arrival[v].keys()
        cn = (
            np.array([nbr_arrival[u][w] for w in sorted(common)], dtype=np.int64),
            np.array([nbr_arrival[v][w] for w in sorted(common)], dtype=np.int64),
        )
        prep.append(
            (
                u,
                v,
                np.array(arrivals[u], dtype=np.int64),
                np.array(arrivals[v], dtype=np.int64),
                cn,
            )
        )
        nbr_arrival[u][v] = ell
        nbr_arrival[v][u] = ell
        arrivals[u].append(ell)
        arrivals[v].append(ell)

    # vertex-major, so each per-vertex read last[u] is one contiguous row
    last = np.zeros((n + 1, trials), dtype=np.int64)
    p_plus = np.zeros(trials)
    p_minus = np.zeros(trials)
    inv_k = 1.0 / k
    for ell, (u, v, arr_u, arr_v, (cn_u, cn_v)) in enumerate(prep, start=1):
        sel = rng.random(trials) < inv_k
        last_u, last_v = last[u], last[v]
        alive_u = arr_u.size - np.searchsorted(arr_u, last_u)
        alive_v = arr_v.size - np.searchsorted(arr_v, last_v)
        both = np.zeros(trials, dtype=np.int64)
        for awu, awv in zip(cn_u, cn_v):
            both += (last_u <= awu) & (last_v <= awv)
        single = alive_u + alive_v - 2 * both
        p_plus += sel * (both / m + single / (4 * m))
        p_minus += sel * (single / (4 * m))
        last_u[sel] = ell
        last_v[sel] = ell

    draw = rng.random(trials)
    km = k * m
    out[draw < p_plus] = km
    out[(draw >= p_plus) & (draw < p_plus + p_minus)] = -km
    return out


def exact_output_distribution(stream: EdgeStream, k: int) -> dict[int, Fraction]:
    """Exact law of run_single by averaging over all selection patterns.

    Exponential in m; meant for tiny fixtures where it cross-checks both the
    sketch enumeration and the vectorized sampler.
    """
    m = stream.m
    if k < 1:
        raise InvalidParamsError(f"k must be >= 1, got {k}")
    law: dict[int, Fraction] = {}
    if m == 0:
        return {0: Fraction(1)}
    if m > 16:
        raise InvalidParamsError("exact law is exponential in m; use m <= 16")
    p_sel = Fraction(1, k)
    nbr_arrival: list[dict[int, int]] = [dict() for _ in range(stream.n + 1)]
    for ell, (u, v) in enumerate(stream.edges, start=1):
        nbr_arrival[u][v] = ell
        nbr_arrival[v][u] = ell

    for mask in range(2**m):
        pattern = tuple((mask >> i) & 1 == 1 for i in range(m))
        p_pattern = Fraction(1)
        for bit in pattern:
            p_pattern *= p_sel if bit else 1 - p_sel
        if p_pattern == 0:
            continue
        pp, pm = _pattern_fire_probs(stream, pattern, nbr_arrival)
        km = k * m
        law[km] = law.get(km, Fraction(0)) + p_pattern * pp
        law[-km] = law.get(-km, Fraction(0)) + p_pattern * pm
        law[0] = law.get(0, Fraction(0)) + p_pattern * (1 - pp - pm)
    law = {x: p for x, p in law.items() if p}
    mass = sum(law.values())
    if mass != 1:
        raise InvariantError(f"triangle law carries mass {mass}, not 1")
    return law


def _pattern_fire_probs(
    stream: EdgeStream,
    pattern: Sequence[bool],
    nbr_arrival: list[dict[int, int]] | None = None,
) -> tuple[Fraction, Fraction]:
    """Exact (P[Plus], P[Minus]) for one fixed selection pattern."""
    if nbr_arrival is None:
        nbr_arrival = [dict() for _ in range(stream.n + 1)]
        for ell, (u, v) in enumerate(stream.edges, start=1):
            nbr_arrival[u][v] = ell
            nbr_arrival[v][u] = ell
    m = stream.m
    last = [0] * (stream.n + 1)
    pp = Fraction(0)
    pm = Fraction(0)
    for ell, (u, v) in enumerate(stream.edges, start=1):
        if pattern[ell - 1]:
            both = single = 0
            for w in range(1, stream.n + 1):
                au = nbr_arrival[u].get(w)
                av = nbr_arrival[v].get(w)
                oku = au is not None and au < ell and last[u] <= au
                okv = av is not None and av < ell and last[v] <= av
                if oku and okv:
                    both += 1
                elif oku or okv:
                    single += 1
            pp += Fraction(both, m) + Fraction(single, 4 * m)
            pm += Fraction(single, 4 * m)
            last[u] = ell
            last[v] = ell
    return pp, pm
