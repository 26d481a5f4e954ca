"""Degree-class-pair snapshot estimation over directed edge streams.

The estimator bins each edge by a noisy, subsampled "pseudobias" of its
endpoints and counts edges per bin pair, using the pair-sampling sketch to
detect when both endpoints sit in the target degree classes. Everything
randomized is hash-derived (hash seed) or sketch-derived (run seed), so all
expectations here are conditional on the hash draw and exactly computable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from hashlib import blake2b
from typing import Callable

import numpy as np

from .errors import (
    CapacityError,
    InvalidParamsError,
    InvalidQueryError,
    InvariantError,
)
from .heavy_edges import DirectedEdgeStream
from .permutation import CyclicShift, PermutationSpec, SwapStage
from .sketch import Law, QueryOne, QueryOutcome, QueryPair, Update, create, replay_law
from .universe import Block, IntRange, Labels, UniverseSpec

FAMILIES = ("A", "B", "C", "D")


def to_fraction(x) -> Fraction:
    """Exact rational from user input; floats go through their decimal repr."""
    try:
        return Fraction(str(x) if isinstance(x, float) else x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidParamsError(f"{str(x)[:20]!r} is not a rational number") from None


# ---------------------------------------------------------------------------
# degree grid and hash oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeGrid:
    """Geometric degree grid, deduplicated, ending exactly at n."""

    eps: Fraction
    levels: tuple[int, ...]

    def __post_init__(self):
        if not (0 < self.eps <= 1):
            raise InvalidParamsError("eps must be in (0, 1]")
        if not self.levels or self.levels[0] != 1:
            raise InvalidParamsError("grid must start at 1")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise InvalidParamsError("grid levels must be strictly increasing")

    @classmethod
    def from_eps(cls, n: int, eps) -> "DegreeGrid":
        e = to_fraction(eps)
        if n < 1:
            raise InvalidParamsError("n must be positive")
        # the powers of 1 + eps^3 below only grow past n when eps > 0
        if not (0 < e <= 1):
            raise InvalidParamsError("eps must be in (0, 1]")
        if n * e**3 <= 1:
            # below n each step raises the power by less than one, so the
            # floors take every value in 1..n
            return cls(eps=e, levels=tuple(range(1, n + 1)))
        step = 1 + e**3
        levels = []
        power = Fraction(1)
        while power < n:
            levels.append(int(power.numerator // power.denominator))
            power *= step
        levels.append(n)
        out = []
        for d in levels:
            if not out or d > out[-1]:
                out.append(d)
        return cls(eps=e, levels=tuple(out))

    def index_for_degree(self, d: int) -> int:
        """Largest grid index whose value does not exceed d."""
        if d < 1:
            raise InvalidParamsError("degree must be at least 1")
        return bisect_right(self.levels, d) - 1


@dataclass(frozen=True)
class HashOracles:
    """Pure keyed hash functions: per-level edge subsamplers and vertex noise.

    f(d, edge_index) fires with probability kappa/(2d) (up to one part in
    2^64); g(vertex) is uniform on [-eps, eps] with 32 fractional bits. Both
    are deterministic in (seed, arguments), so re-evaluation is free.
    """

    seed: int
    kappa: int
    eps: Fraction

    def __post_init__(self):
        if self.kappa < 1:
            raise InvalidParamsError("kappa must be at least 1")
        object.__setattr__(self, "eps", to_fraction(self.eps))

    def f(self, d: int, edge_index: int) -> bool:
        data = f"f:{self.seed}:{d}:{edge_index}".encode()
        h = int.from_bytes(blake2b(data, digest_size=8).digest(), "big")
        return h * 2 * d < self.kappa * 2**64

    def g(self, vertex: int) -> Fraction:
        data = f"g:{self.seed}:{vertex}".encode()
        u = int.from_bytes(blake2b(data, digest_size=4).digest(), "big")
        return self.eps * Fraction(u - 2**31, 2**31)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotParams:
    kappa: int
    eps: Fraction
    thresholds: tuple[Fraction, ...]
    class_pair: tuple[int, int]
    capacity_c: int = 32
    copies: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "eps", to_fraction(self.eps))
        object.__setattr__(
            self, "thresholds", tuple(to_fraction(t) for t in self.thresholds)
        )
        if self.kappa < 1:
            raise InvalidParamsError("kappa must be at least 1")
        if not self.thresholds:
            raise InvalidParamsError("need at least one threshold")
        ts = self.thresholds
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidParamsError("thresholds must be strictly increasing")
        if ts[0] < -1 or ts[-1] > 1:
            raise InvalidParamsError("thresholds must lie in [-1, 1]")
        if self.capacity_c < 1 or self.copies < 1:
            raise InvalidParamsError("capacity_c and copies must be positive")

    @property
    def ell(self) -> int:
        return len(self.thresholds)

    def bin_of(self, value: Fraction) -> int | None:
        """0-based class of a pseudobias; None when it falls below them all.

        Classes are half-open except the last, which is closed at 1. The
        cap in the pseudobias keeps values <= 1, so bisect suffices.
        """
        if value < self.thresholds[0]:
            return None
        return bisect_right(self.thresholds, value) - 1

    def validate_with(self, grid: DegreeGrid, hashes: HashOracles) -> tuple[int, int, int, int]:
        """Check params against grid and hashes; return the class window (d_a, d_a1, d_b, d_b1)."""
        a, b = self.class_pair
        top = len(grid.levels) - 1
        if not (0 <= a < top and 0 <= b < top):
            raise InvalidParamsError(
                f"class indices must be in [0, {top - 1}], got {self.class_pair}"
            )
        if self.eps != grid.eps or self.eps != hashes.eps:
            raise InvalidParamsError("eps disagrees between params, grid, hashes")
        if self.kappa != hashes.kappa:
            raise InvalidParamsError("kappa disagrees between params and hashes")
        return grid.levels[a], grid.levels[a + 1], grid.levels[b], grid.levels[b + 1]


# ---------------------------------------------------------------------------
# exact pseudobias and snapshot oracles (one arrival table per call, no sketch)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeLocalStats:
    edge_index: int
    vertex: int
    d_before: int
    dout_before: int
    d_after: int
    dout_after: int
    i_tilde: int
    d_rounded: int
    dout_sampled: Fraction
    pseudobias: Fraction
    bias: Fraction

    def __post_init__(self):
        if self.pseudobias > 1 or self.d_before < 1:
            raise InvariantError(
                f"edge {self.edge_index} vertex {self.vertex}: pseudobias "
                f"{self.pseudobias} > 1 or degree {self.d_before} < 1"
            )


def _pseudobias(hashes, vertex, d, sampled, d_after, dout_after) -> tuple[Fraction, Fraction]:
    """(dout_sampled, pseudobias) at rounded degree d, `sampled` out-edges fired f(d, .)."""
    dout_sampled = Fraction(2 * d * sampled, hashes.kappa)
    raw = 2 * (dout_sampled + dout_after) / (d + d_after) - 1 + hashes.g(vertex)
    return dout_sampled, min(raw, Fraction(1))


class _Arrivals:
    """Each vertex's incident and out-edge indices in stream order, from one
    pass; its degree counts through or after any edge are two bisects."""

    def __init__(self, stream: DirectedEdgeStream):
        self.incident: list[list[int]] = [[] for _ in range(stream.n + 1)]
        self.out: list[list[int]] = [[] for _ in range(stream.n + 1)]
        for k, (u, v) in enumerate(stream.edges, start=1):
            self.incident[u].append(k)
            self.incident[v].append(k)
            self.out[u].append(k)

    def after(self, edge_index: int, vertex: int) -> tuple[int, int]:
        """(d_after, dout_after): the vertex's edges, and out-edges, after the edge."""
        inc, out = self.incident[vertex], self.out[vertex]
        return len(inc) - bisect_right(inc, edge_index), len(out) - bisect_right(out, edge_index)

    def degree(self, edge_index: int, vertex: int) -> int:
        """The vertex's degree through the edge."""
        return bisect_right(self.incident[vertex], edge_index)

    def stats(self, hashes, grid, edge_index: int, vertex: int) -> EdgeLocalStats:
        inc, out = self.incident[vertex], self.out[vertex]
        d_after, dout_after = self.after(edge_index, vertex)
        d_before, dout_before = len(inc) - d_after, len(out) - dout_after
        i_tilde = grid.index_for_degree(d_before)
        d_rounded = grid.levels[i_tilde]
        sampled = sum(hashes.f(d_rounded, k) for k in out[:dout_before])
        dout_sampled, pseudobias = _pseudobias(
            hashes, vertex, d_rounded, sampled, d_after, dout_after
        )
        return EdgeLocalStats(
            edge_index=edge_index,
            vertex=vertex,
            d_before=d_before,
            dout_before=dout_before,
            d_after=d_after,
            dout_after=dout_after,
            i_tilde=i_tilde,
            d_rounded=d_rounded,
            dout_sampled=dout_sampled,
            pseudobias=pseudobias,
            bias=Fraction(2 * len(out) - len(inc), len(inc)),
        )


def pseudobias_exact(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    edge_index: int,
    vertex: int,
) -> EdgeLocalStats:
    """All local degree statistics of one endpoint of one edge.

    Counts on the "before" side include the edge itself, matching what the
    streaming estimator can reconstruct from its hit coordinates.
    """
    if not (1 <= edge_index <= stream.m):
        raise InvalidQueryError(f"edge index {edge_index} out of range")
    u, v = stream.edges[edge_index - 1]
    if vertex not in (u, v):
        raise InvalidQueryError(f"vertex {vertex} is not an endpoint of edge {edge_index}")
    return _Arrivals(stream).stats(hashes, grid, edge_index, vertex)


def pseudosnapshot_exact(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    params: SnapshotParams,
    *,
    restricted: bool = False,
) -> list[list[int]]:
    """Edge counts binned by endpoint pseudobias classes.

    With restricted=True only edges whose endpoint degrees (through the edge)
    fall in the target classes are counted. Edges whose pseudobias lands
    below every threshold belong to no class and count nowhere.
    """
    d_a, d_a1, d_b, d_b1 = params.validate_with(grid, hashes)
    ell = params.ell
    out = [[0] * ell for _ in range(ell)]
    arrivals = _Arrivals(stream)
    for k, (u, v) in enumerate(stream.edges, start=1):
        if restricted and not (
            d_a <= arrivals.degree(k, u) < d_a1 and d_b <= arrivals.degree(k, v) < d_b1
        ):
            continue
        su = arrivals.stats(hashes, grid, k, u)
        sv = arrivals.stats(hashes, grid, k, v)
        iu = params.bin_of(su.pseudobias)
        iv = params.bin_of(sv.pseudobias)
        if iu is None or iv is None:
            continue
        out[iu][iv] += 1
    return out


# ---------------------------------------------------------------------------
# the sketch-side plan: universe, increments, queries, cleanup
# ---------------------------------------------------------------------------


def snapshot_universe(n: int, m: int, params: SnapshotParams) -> UniverseSpec:
    big_m = params.capacity_c * params.kappa**3 * m
    copies = 2 * params.kappa**2
    return UniverseSpec(
        blocks=(
            Block("scratch", (IntRange(1, big_m),)),
            Block(
                "stack",
                (
                    IntRange(1, n),
                    Labels(FAMILIES),
                    IntRange(1, copies),
                    IntRange(0, big_m * n - 1),
                ),
            ),
        )
    )


@dataclass(frozen=True)
class EdgePlan:
    edge_index: int
    updates: tuple[Update, ...]
    queries: tuple[tuple[QueryPair, tuple[int, int, int]], ...]
    cleanups: tuple[QueryOne, ...]


@dataclass(frozen=True)
class ScriptPlan:
    universe: UniverseSpec
    edge_plans: tuple[EdgePlan, ...]
    big_m: int
    hash_budget_ok: bool
    capacity_edge: int | None
    f_alpha: tuple[bool, ...]
    f_beta: tuple[bool, ...]

    def initial_members(self) -> range:
        return range(self.big_m)


class _Plan:
    """Single source of the sketch operations: positions, copies, scratch.

    Both the live runner and the noiseless-replay law construct their
    operations here, so they cannot drift apart.
    """

    def __init__(self, stream, hashes, grid, params):
        self.d_a, self.d_a1, self.d_b, self.d_b1 = params.validate_with(grid, hashes)
        if grid.levels[-1] != stream.n:
            raise InvalidParamsError("grid was built for a different n")
        self.kappa = params.kappa
        self.copies = 2 * params.kappa**2
        self.n, self.m = stream.n, stream.m
        self.big_m = params.capacity_c * params.kappa**3 * stream.m
        self.positions = self.big_m * self.n
        self.universe = snapshot_universe(stream.n, stream.m, params)
        self._stack_off = self.universe.block_offset("stack")
        # scratch ids are 0..M-1; the cursor doubles as the next scratch id
        if self.universe.block_offset("scratch") != 0:
            raise InvariantError("the scratch block must come first in the universe")
        self._s_copy = self.positions
        self._s_fam = self.copies * self.positions
        self._s_vert = len(FAMILIES) * self._s_fam
        self.cursor = 0
        self.tops = {(w, fam): 0 for w in range(1, stream.n + 1) for fam in FAMILIES}

    def slot(self, w: int, fam: str, copy: int, pos: int) -> int:
        return (
            self._stack_off
            + (w - 1) * self._s_vert
            + FAMILIES.index(fam) * self._s_fam
            + (copy - 1) * self._s_copy
            + pos
        )

    def inc_update(self, fam: str, w: int, r: int) -> Update:
        """One update: shift the whole (w, fam) stack up by r, then swap the
        next 2k^2*r scratch elements into the vacated bottom positions."""
        need = self.copies * r
        if self.cursor + need > self.big_m:
            raise CapacityError(
                f"scratch exhausted: need {need}, have {self.big_m - self.cursor}"
            )
        shift = CyclicShift(
            "stack", r, select=(frozenset({w}), frozenset({fam}), None)
        )
        pairs = []
        k = self.cursor
        for copy in range(1, self.copies + 1):
            for pos in range(1, r + 1):
                pairs.append((k, self.slot(w, fam, copy, pos)))
                k += 1
        self.cursor += need
        self.tops[(w, fam)] += r
        if self.tops[(w, fam)] >= self.positions:
            raise InvariantError(f"stack ({w}, {fam}) grew past {self.positions} positions")
        return Update(PermutationSpec(self.universe, (shift, SwapStage(tuple(pairs)))))

    def edge_updates(self, u: int, v: int, fa: bool, fb: bool) -> list[Update]:
        ups = []
        for w in (u, v):
            for fam in FAMILIES:
                ups.append(self.inc_update(fam, w, 1))
        if fa:
            ups.append(self.inc_update("A", u, self.d_a1))
            ups.append(self.inc_update("B", u, self.d_a1))
        if fb:
            ups.append(self.inc_update("C", u, self.d_b1))
            ups.append(self.inc_update("D", u, self.d_b1))
        return ups

    def edge_queries(self, u: int, v: int) -> list[tuple[QueryPair, tuple[int, int, int]]]:
        """The 4k^2 pair queries, lexicographic in (i, j, x).

        Copy indices t and s pair the i-indexed and j-indexed halves
        injectively so every queried element is distinct.
        """
        k = self.kappa
        out = []
        seen: set[int] = set()
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                t = (i - 1) * k + j
                s = k * k + (j - 1) * k + i
                pa = self.d_a + (i - 1) * self.d_a1
                pb = i * self.d_a1
                pc = self.d_b + (j - 1) * self.d_b1
                pd = j * self.d_b1
                quads = (
                    (1, self.slot(u, "A", t, pa), self.slot(v, "C", t, pc)),
                    (2, self.slot(u, "B", t, pb), self.slot(v, "C", s, pc)),
                    (3, self.slot(u, "A", s, pa), self.slot(v, "D", t, pd)),
                    (4, self.slot(u, "B", s, pb), self.slot(v, "D", s, pd)),
                )
                for x, ex, ey in quads:
                    seen.update((ex, ey))
                    out.append((QueryPair(ex, ey), (x, i, j)))
        if len(seen) != 8 * k * k:
            raise InvariantError("the edge's pair queries must touch disjoint elements")
        return out

    def edge_cleanups(self, u: int, v: int) -> list[QueryOne]:
        """Single queries wiping every threshold-aligned index, base included,
        from all copies of both endpoints' stacks, bounded by stack extents."""
        out = []
        for w in (u, v):
            for fam, base, step in (
                ("A", self.d_a, self.d_a1),
                ("B", self.d_a1, self.d_a1),
                ("C", self.d_b, self.d_b1),
                ("D", self.d_b1, self.d_b1),
            ):
                top = self.tops[(w, fam)]
                pos = base
                while pos <= top:
                    for copy in range(1, self.copies + 1):
                        out.append(QueryOne(self.slot(w, fam, copy, pos)))
                    pos += step
        return out


def build_plan(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    params: SnapshotParams,
) -> ScriptPlan:
    plan = _Plan(stream, hashes, grid, params)
    fa = tuple(hashes.f(plan.d_a, k) for k in range(1, stream.m + 1))
    fb = tuple(hashes.f(plan.d_b, k) for k in range(1, stream.m + 1))
    budget_ok = sum(fa) + sum(fb) <= 2 * params.kappa * stream.m
    edge_plans = []
    capacity_edge = None
    if budget_ok:
        for k, (u, v) in enumerate(stream.edges, start=1):
            try:
                updates = plan.edge_updates(u, v, fa[k - 1], fb[k - 1])
            except CapacityError:
                capacity_edge = k
                break
            edge_plans.append(
                EdgePlan(
                    edge_index=k,
                    updates=tuple(updates),
                    queries=tuple(plan.edge_queries(u, v)),
                    cleanups=tuple(plan.edge_cleanups(u, v)),
                )
            )
    return ScriptPlan(
        universe=plan.universe,
        edge_plans=tuple(edge_plans),
        big_m=plan.big_m,
        hash_budget_ok=budget_ok,
        capacity_edge=capacity_edge,
        f_alpha=fa,
        f_beta=fb,
    )


# ---------------------------------------------------------------------------
# the classical stage (one map from a run's end to its law key) and the runner
# ---------------------------------------------------------------------------


def _fire_key(stream, hashes, grid, params, big_m: int):
    """``key(tag, outcome) -> (terminated_by, entry, value)`` for a fire.

    A cleanup (tag None) zeroes the run. A hit at tag (edge, x, i, j) selects
    an estimate entry: after a hit the estimator watches the rest of the
    stream, so the after-the-edge degree counts are exact; they come from the
    arrival table. The before counts are read off the hit coordinates: a hit
    at (i, j) puts the head at rounded degree d_a with i - 1 sampled
    out-edges, and the tail at d_b with j - 1.
    """
    d_a, _, d_b, _ = params.validate_with(grid, hashes)
    arrivals = _Arrivals(stream)
    half = big_m // 2

    @cache
    def entry(edge_index: int, i: int, j: int) -> tuple[int, int] | None:
        u, v = stream.edges[edge_index - 1]
        _, bu = _pseudobias(hashes, u, d_a, i - 1, *arrivals.after(edge_index, u))
        _, bv = _pseudobias(hashes, v, d_b, j - 1, *arrivals.after(edge_index, v))
        iu, iv = params.bin_of(bu), params.bin_of(bv)
        return None if iu is None or iv is None else (iu, iv)

    def key(tag, outcome: QueryOutcome):
        if tag is None:
            return ("Cleanup", None, 0)
        edge_index, x, i, j = tag
        cell = entry(edge_index, i, j)
        # an out-of-class hit still terminates, but its output is the zero
        # matrix, so the key is what a run can actually show
        value = 0 if cell is None else outcome.sign * (half if x in (1, 4) else -half)
        return (outcome.value, cell, value)

    return key


def _end_key(plan: ScriptPlan):
    """The key of a pass no query ends: a blown hash budget leaves the plan
    without edges, exhausted scratch cuts it short, else the stream ends."""
    if not plan.hash_budget_ok:
        return ("HashBudget", None, 0)
    return ("Capacity" if plan.capacity_edge is not None else "StreamEnd", None, 0)


_FLAGS = {"HashBudget": ("hash_budget_exceeded",), "Capacity": ("capacity_exceeded",)}


@dataclass(frozen=True)
class PseudosnapshotEstimate:
    entries: tuple[tuple[int, ...], ...]
    terminated_by: str
    flags: tuple[str, ...]
    key: tuple[str, tuple[int, int] | None, int]  # the run's atom in terminal_law

    def __post_init__(self):
        nonzero = sum(1 for row in self.entries for val in row if val)
        if nonzero > 1:
            raise InvariantError(f"a single run set {nonzero} estimate entries")

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


def _estimate(ell: int, key) -> PseudosnapshotEstimate:
    """The estimate a run shows when it ends at law key ``key``."""
    terminated_by, cell, value = key
    rows = [[0] * ell for _ in range(ell)]
    if cell is not None:
        rows[cell[0]][cell[1]] = value
    flags = _FLAGS.get(terminated_by, ())
    return PseudosnapshotEstimate(tuple(map(tuple, rows)), terminated_by, flags, key)


def run_single(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    params: SnapshotParams,
    seed: int,
    *,
    handle_id: int = 0,
    observer: Callable[[int, set[int]], None] | None = None,
    plan: ScriptPlan | None = None,
) -> PseudosnapshotEstimate:
    """One full pass: quantum stage over the stream, classical stage on a hit.

    The handle's randomness comes from (seed, handle_id); the hash draw is
    fixed by `hashes`. An exhausted scratch pool or a blown hash budget
    flags the run and zeroes the estimate, as does a cleanup hit.
    """
    ell = params.ell
    if stream.m == 0:
        return _estimate(ell, ("StreamEnd", None, 0))
    if plan is None:
        plan = build_plan(stream, hashes, grid, params)

    def fired(tag, outcome: QueryOutcome) -> PseudosnapshotEstimate:
        return _estimate(ell, _fire_key(stream, hashes, grid, params, plan.big_m)(tag, outcome))

    members = plan.initial_members()
    handle = create(plan.universe, members, master_seed=seed, handle_id=handle_id)
    for eplan in plan.edge_plans:
        for up in eplan.updates:
            handle.update(up.perm)
        for op, coords in eplan.queries:
            outcome = handle.query_pair(op.x, op.y)
            if outcome is not QueryOutcome.BOT:
                return fired((eplan.edge_index, *coords), outcome)
        for op in eplan.cleanups:
            outcome = handle.query_one(op.x)
            if outcome is not QueryOutcome.BOT:
                return fired(None, outcome)
        if observer is not None:
            observer(eplan.edge_index, handle.debug_members())
    return _estimate(ell, _end_key(plan))


# ---------------------------------------------------------------------------
# exact terminal law via noiseless replay
# ---------------------------------------------------------------------------


def entry_value(cell: tuple[int, int]) -> Callable[[tuple], int]:
    """Projection of a law key onto the value a run shows at entry ``cell``."""
    return lambda key: key[2] if key[1] == cell else 0


@dataclass(frozen=True)
class SnapshotLaw:
    """Exact distribution of run_single outputs for one hash draw.

    ``law`` keys its atoms by (terminated_by, entry, value), in ``repr`` order
    of the keys. It comes from the deterministic all-miss replay, where each
    query's unconditional fire probability depends only on the initial size
    and its presence pattern.
    """

    ell: int
    big_m: int
    law: Law

    @property
    def atoms(self) -> dict[tuple[str, tuple[int, int] | None, int], Fraction]:
        return self.law.atoms

    def expectation(self) -> list[list[Fraction]]:
        cells = range(self.ell)
        return [[self.law.expect(entry_value((a, b))) for b in cells] for a in cells]

    def sample(self, master_seed: int, trials: int):
        """Vectorized draws: arrays (row, col, value), row/col -1 for none."""
        keys = list(self.atoms)
        rows = np.array([k[1][0] if k[1] else -1 for k in keys], dtype=np.int64)
        cols = np.array([k[1][1] if k[1] else -1 for k in keys], dtype=np.int64)
        vals = np.array([k[2] for k in keys], dtype=np.int64)
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, 6]))
        idx = self.law.sample(rng, trials)
        return rows[idx], cols[idx], vals[idx]


def terminal_law(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    params: SnapshotParams,
    *,
    plan: ScriptPlan | None = None,
) -> SnapshotLaw:
    params.validate_with(grid, hashes)
    ell = params.ell
    if stream.m == 0:
        return SnapshotLaw(ell, 0, Law({("StreamEnd", None, 0): Fraction(1)}))
    if plan is None:
        plan = build_plan(stream, hashes, grid, params)
    # each query tagged with its hit coordinates, or None for a cleanup
    tagged: list = []
    for eplan in plan.edge_plans:
        tagged += ((up, None) for up in eplan.updates)
        tagged += ((op, (eplan.edge_index, *coords)) for op, coords in eplan.queries)
        tagged += ((op, None) for op in eplan.cleanups)
    key = _fire_key(stream, hashes, grid, params, plan.big_m)
    atoms = replay_law(plan.universe, plan.initial_members(), tagged, key, _end_key(plan)).atoms
    return SnapshotLaw(ell, plan.big_m, Law(dict(sorted(atoms.items(), key=lambda a: repr(a[0])))))


# ---------------------------------------------------------------------------
# the lemma-side expectation oracle (independent of the sketch machinery)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotOracle:
    """Per-entry expected estimator output, by direct edge counting.

    An edge contributes exactly one to the entry of its endpoint biases when
    its endpoint degrees lie in the target classes and both hit coordinates
    fit inside the kappa x kappa query window; everything else cancels.
    """

    expectation: tuple[tuple[int, ...], ...]
    in_class: int
    qualifying: int

    @property
    def nonqualifying(self) -> int:
        return self.in_class - self.qualifying


def lemma_expectation(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    params: SnapshotParams,
) -> SnapshotOracle:
    d_a, d_a1, d_b, d_b1 = params.validate_with(grid, hashes)
    ell = params.ell
    out = [[0] * ell for _ in range(ell)]
    fired_a = [0] * (stream.n + 1)
    fired_b = [0] * (stream.n + 1)
    in_class = qualifying = 0
    arrivals = _Arrivals(stream)
    for k, (u, v) in enumerate(stream.edges, start=1):
        fired_a[u] += hashes.f(d_a, k)
        fired_b[u] += hashes.f(d_b, k)
        if not (d_a <= arrivals.degree(k, u) < d_a1 and d_b <= arrivals.degree(k, v) < d_b1):
            continue
        in_class += 1
        if fired_a[u] + 1 > params.kappa or fired_b[v] + 1 > params.kappa:
            continue
        qualifying += 1
        su = arrivals.stats(hashes, grid, k, u)
        sv = arrivals.stats(hashes, grid, k, v)
        if su.d_rounded != d_a or sv.d_rounded != d_b:
            raise InvariantError(f"edge {k}: rounded degrees leave the target classes")
        iu = params.bin_of(su.pseudobias)
        iv = params.bin_of(sv.pseudobias)
        if iu is None or iv is None:
            continue
        out[iu][iv] += 1
    return SnapshotOracle(
        expectation=tuple(tuple(row) for row in out),
        in_class=in_class,
        qualifying=qualifying,
    )


# ---------------------------------------------------------------------------
# averaging wrappers
# ---------------------------------------------------------------------------


def _copies(params: SnapshotParams, copies: int | None) -> int:
    copies = params.copies if copies is None else copies
    if copies < 1:
        raise InvalidParamsError(f"copies must be >= 1, got {copies}")
    return copies


def estimate(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    params: SnapshotParams,
    *,
    master_seed: int = 0,
    copies: int | None = None,
) -> np.ndarray:
    """Entrywise mean of independent single runs."""
    ell, copies = params.ell, _copies(params, copies)
    if stream.m == 0:
        return np.zeros((ell, ell))
    plan = build_plan(stream, hashes, grid, params)
    total = np.zeros((ell, ell))
    for c in range(copies):
        est = run_single(
            stream, hashes, grid, params, master_seed, handle_id=c, plan=plan
        )
        total += est.as_array()
    return total / copies


def estimate_sampled(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    params: SnapshotParams,
    *,
    master_seed: int = 0,
    copies: int | None = None,
) -> np.ndarray:
    """Same distribution as `estimate`, drawn from the exact terminal law."""
    ell, copies = params.ell, _copies(params, copies)
    law = terminal_law(stream, hashes, grid, params)
    rows, cols, vals = law.sample(master_seed, copies)
    total = np.zeros((ell, ell))
    np.add.at(total, (rows[rows >= 0], cols[rows >= 0]), vals[rows >= 0])
    return total / copies
