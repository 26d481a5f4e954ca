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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import InvalidParamsError
from .permutation import PermutationSpec, SwapStage
from .sketch import Law, QueryGroup, Tape, count_param, create, edge_list, fire_probs, purpose_rng
from .sketch import run_tagged, signed_key
from .universe import Block, IntRange, UniverseSpec


@dataclass(frozen=True)
class EdgeStream:
    """Simple undirected graph given as an arrival-ordered edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n, edges = edge_list(self.n, self.edges, directed=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _universe(self) -> UniverseSpec:
        return triangle_universe(self)

    @cached_property
    def _members(self) -> range:
        """Every run's initial members: the 2m scratch ids."""
        off = self._universe.block_offset("scratch")
        return range(off, off + 2 * self.m)

    @cached_property
    def _items(self) -> tuple:
        """Every triangle run's tape items, one per edge (see ``_edge_ops``); a run
        walks each selected edge's whole item and the swap alone of the rest."""
        return tuple(_edge_ops(self.edges, self.n, self._universe, k) for k in range(self.m))

    @cached_property
    def _laws(self) -> dict[int, Law]:
        """``terminal_law`` per sampling period k, each built on its first call."""
        return {}


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
        object.__setattr__(self, "k", count_param("k", self.k, 1))
        if not (0 < self.eps <= 1 and 0 < self.delta <= 1):
            raise InvalidParamsError("eps and delta must lie in (0, 1]")
        if self.T_prime <= 0 or self.Delta_E <= 0:
            raise InvalidParamsError("T_prime and Delta_E must be positive")
        if self.repetitions is not None:
            try:
                copies, groups = self.repetitions
            except (TypeError, ValueError):
                raise InvalidParamsError(
                    f"repetitions must be (copies per group, groups), got {self.repetitions!r}"
                ) from None
            object.__setattr__(self, "repetitions", (
                count_param("copies per group", copies, 1), count_param("groups", groups, 1)))


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
    T_less sums integer numerators over k^max; each weight is built once per power.
    """
    k = count_param("k", k, 1)
    arrival: list[dict[int, int]] = [{} for _ in range(stream.n + 1)]
    incident: list[list[int]] = [[] for _ in range(stream.n + 1)]
    rows = {}
    for a3, (x, y) in enumerate(stream.edges, start=1):
        for apex in arrival[x].keys() & arrival[y].keys():
            (a1, v), (a2, w) = sorted(((arrival[x][apex], x), (arrival[y][apex], y)))
            d_v = len(incident[v]) - bisect_right(incident[v], a1)
            d_w = len(incident[w]) - bisect_right(incident[w], a2)
            rows[tuple(sorted((apex, x, y)))] = (apex, v, w, d_v, d_w)
        arrival[x][y] = arrival[y][x] = a3
        incident[x].append(a3)
        incident[y].append(a3)
    exps = Counter(d_v + d_w for *_, d_v, d_w in rows.values())  # exponent -> triangles
    top, weight = max(exps, default=0), {d: Fraction(k - 1, k) ** d for d in exps}
    per_triangle = tuple((*row, weight[row[3] + row[4]]) for row in map(rows.get, sorted(rows)))
    total_less = Fraction(sum(c * (k - 1) ** d * k ** (top - d) for d, c in exps.items()), k**top)
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


def _edge_ops(edges, n: int, universe: UniverseSpec, k: int) -> tuple:
    """Edge k = (u, v)'s tape item, (group, swap): the group holds the pair
    queries ((w, u), (w, v)) for w = 1..n (tags None), which only a selected
    edge asks; the swap then moves two fresh scratch ids into (u, v) and (v, u)."""
    u, v = edges[k]
    fresh = universe.block_offset("scratch") + 2 * k
    pairs = ((fresh, _pair_id(n, u, v)), (fresh + 1, _pair_id(n, v, u)))
    xs = [_pair_id(n, w, u) for w in range(1, n + 1)]
    ys = [_pair_id(n, w, v) for w in range(1, n + 1)]
    group = (QueryGroup(universe, xs, ys), (None,) * n)
    return group, (PermutationSpec(universe, (SwapStage(pairs),)), None)


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
    k = count_param("k", k, 1)
    m = stream.m
    if m == 0:
        return 0
    # the selection stream g: one draw per edge, as m calls of g.random()
    draws = np.random.default_rng(np.random.SeedSequence([seed, handle_id, 2])).random(m).tolist()
    items = (item if g * k < 1.0 else item[1:] for item, g in zip(stream._items, draws))
    tape = Tape(stream._universe, stream._members, items, partial(signed_key, k * m), 0)
    handle = create(tape.universe, tape.members, master_seed=seed, handle_id=handle_id)
    return run_tagged(handle, tape, observer)


def estimate(stream: EdgeStream, params: TriangleParams, *, master_seed: int = 0) -> float:
    """Median of group means of independent run_single copies."""
    copies, groups = _repetitions(stream, params)
    runs = [run_single(stream, params.k, master_seed, handle_id=h) for h in range(copies * groups)]
    return float(np.median(np.reshape(runs, (groups, copies)).mean(axis=1)))


def estimate_sampled(
    stream: EdgeStream, params: TriangleParams, *, master_seed: int = 0
) -> float:
    """Same aggregation as ``estimate``, over each group's per-atom counts of its
    runs drawn from their exact law: one multinomial draw per group. A group's
    sum is a whole number, exact in float64 while below 2**53."""
    copies, groups = _repetitions(stream, params)
    law = terminal_law(stream, params.k)
    counts = law.draw_counts(purpose_rng("triangle", master_seed), copies, groups)
    return float(np.median(counts @ np.array(list(law.atoms), dtype=np.float64) / copies))


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
    in the order +km, -km, 0, each present only with positive mass. The
    stream builds each k's law on the first call and keeps it.
    """
    k = count_param("k", k, 1)
    laws = stream._laws
    if k not in laws:
        laws[k] = _build_law(stream, k)
    return laws[k]


def _build_law(stream: EdgeStream, k: int) -> Law:
    """``terminal_law``'s sums as polynomials in q with integer coefficients:
    the pass counts how often each power of q occurs in them, and each
    polynomial is evaluated once at the end, at q = (k - 1)/k."""
    m = stream.m
    if m == 0:
        return Law({0: Fraction(1)})
    rank: list[dict[int, int]] = [{} for _ in range(stream.n + 1)]  # neighbour -> edge rank
    both: Counter[int] = Counter()  # d -> common earlier neighbours w with d_u(w) + d_v(w) = d
    earlier: Counter[int] = Counter()  # n -> edge endpoints with n earlier edges
    for u, v in stream.edges:
        ru, rv = rank[u], rank[v]
        for w in ru.keys() & rv.keys():
            both[len(ru) - 1 - ru[w] + len(rv) - 1 - rv[w]] += 1
        earlier[len(ru)] += 1
        earlier[len(rv)] += 1
        ru[v] = len(ru)
        rv[u] = len(rv)
    # the A sums of all endpoints: q^i once for each endpoint with more than i earlier edges
    reach: Counter[int] = Counter()
    above = 0
    for n in range(max(earlier), 0, -1):
        above += earlier[n]
        reach[n - 1] = above
    top = max(both.keys() | reach.keys(), default=0)

    def at_q(counts: Counter[int]) -> Fraction:
        value = 0  # Horner's rule on k^top times the polynomial, in integers
        for d in range(top, -1, -1):
            value = value * (k - 1) + counts[d] * k ** (top - d)
        return Fraction(value, k**top)

    # present count -> sum over edges of E[such queries | the edge is selected]
    b = at_q(both)
    expected = {2: b, 1: at_q(reach) - 2 * b}
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
    law = terminal_law(stream, k)
    idx = law.sample(purpose_rng("triangle", master_seed), trials)
    return np.array(list(law.atoms), dtype=np.int32)[idx]


def sample_counts(stream: EdgeStream, k: int, master_seed: int, trials: int) -> np.ndarray:
    """Per-atom counts, in ``terminal_law`` order, of ``trials`` draws from it."""
    return terminal_law(stream, k).draw_counts(purpose_rng("triangle", master_seed), trials)
