"""Degree-class-pair snapshot estimation over directed edge streams.

The estimator bins each edge by a noisy, subsampled "pseudobias" of its
endpoints and counts edges per bin pair, using the pair-sampling sketch to
detect when both endpoints sit in the target degree classes. Everything
randomized is hash-derived (hash seed) or sketch-derived (run seed), so all
expectations here are conditional on the hash draw and exactly computable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
from .permutation import PermutationSpec, SwapStage, frame_id
from .sketch import Law, QueryGroup, QueryOne, QueryOutcome, QueryPair, Tape, create
from .sketch import count_param, purpose_rng, replay_numerators, run_tagged
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
        return cls(eps=e, levels=_power_floors(n, e**3))

    def index_for_degree(self, d: int) -> int:
        """Largest grid index whose value does not exceed d."""
        if d < 1:
            raise InvalidParamsError("degree must be at least 1")
        return bisect_right(self.levels, d) - 1


def _power_floors(n: int, c: Fraction) -> tuple[int, ...]:
    """floor((1 + c)^k) for every k with (1 + c)^k < n, then n, without repeats.

    The step from power k to k + 1 is (1 + c)^k * c. While it is below one
    the floors take every value in turn, so they are listed as a range, up
    to the k0 that logarithms place safely below where the step reaches one.
    Each later floor is read off exp(k * log1p(c)) and settled exactly, from
    integer powers, whenever that estimate lies within its error bound of an
    integer.
    """
    num, den = (1 + c).numerator, (1 + c).denominator
    log_p = math.log1p(float(c))

    def floor_power(k: int) -> int:
        x = k * log_p
        if x < 700:  # exp stays finite, with relative error below (x + 2) * 2**-50
            v = math.exp(x)
            tol = v * (x + 2) * 2.0**-48
            if tol < v - math.floor(v) < 1 - tol:
                return math.floor(v)
        return num**k // den**k

    # steps before k0 stay below one: k0 - 1 < log(1 / c) / log(1 + c)
    q = (math.log(c.denominator) - math.log(c.numerator)) / log_p
    k = max(0, math.floor(q * (1 - 2.0**-40)) - 1)
    levels = list(range(1, min(floor_power(k), n)))
    while (d := floor_power(k)) < n:
        if not levels or d > levels[-1]:
            levels.append(d)
        k += 1
    return (*levels, n)


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
        object.__setattr__(self, "seed", count_param("seed", self.seed))
        object.__setattr__(self, "kappa", count_param("kappa", self.kappa, 1))
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
        object.__setattr__(self, "kappa", count_param("kappa", self.kappa, 1))
        try:
            a, b = self.class_pair
        except (TypeError, ValueError):
            raise InvalidParamsError(
                f"class_pair must be (alpha, beta), got {self.class_pair!r}"
            ) from None
        object.__setattr__(self, "class_pair", (count_param("alpha", a), count_param("beta", b)))
        if not self.thresholds:
            raise InvalidParamsError("need at least one threshold")
        ts = self.thresholds
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidParamsError("thresholds must be strictly increasing")
        if ts[0] < -1 or ts[-1] > 1:
            raise InvalidParamsError("thresholds must lie in [-1, 1]")
        object.__setattr__(self, "capacity_c", count_param("capacity_c", self.capacity_c, 1))
        object.__setattr__(self, "copies", count_param("copies", self.copies, 1))

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
    """One edge's sketch ops, in framed ids: each increment's shift is left
    pending as its stack's rotation, its top, and every later id addresses a
    slot through it (``permutation.frame_id``), so the update holds swaps only.
    ``item`` is the edge's tape item: the update, the pair queries as one
    group tagged by hit coordinates (edge index, x, i, j), and the cleanups as
    one group tagged None. ``rotations`` pairs each stack line the edge turned
    with its rotation after the edge; framing literal ids needs them.
    ``queries`` and ``cleanups`` list the item's queries as script ops."""

    edge_index: int
    item: tuple
    rotations: tuple[tuple[int, int], ...]

    @property
    def queries(self) -> tuple[tuple[QueryPair, tuple[int, int, int]], ...]:
        """(pair query, its hit coordinates), in order."""
        group, tags = self.item[1]
        return tuple(zip(group.ops(), (tag[1:] for tag in tags)))

    @property
    def cleanups(self) -> tuple[QueryOne, ...]:
        return self.item[2][0].ops()


@dataclass(frozen=True)
class ScriptPlan:
    """The ops of every run on one hash draw: ``edge_plans`` in framed ids,
    from ``initial_members()`` (scratch, which no shift moves). ``fire_key``
    maps a fire to its law key (``_FireKey``)."""

    universe: UniverseSpec
    edge_plans: tuple[EdgePlan, ...]
    big_m: int
    hash_budget_ok: bool
    capacity_edge: int | None
    f_alpha: tuple[bool, ...]
    f_beta: tuple[bool, ...]
    fire_key: Callable[[object, QueryOutcome], tuple]

    def initial_members(self) -> range:
        return range(self.big_m)

    @cached_property
    def tape(self) -> Tape:
        """The declaration every run and the law on this plan walk: the edge
        plans' items, ``fire_key``, and ``_end_key``."""
        items = tuple(eplan.item for eplan in self.edge_plans)
        return Tape(self.universe, self.initial_members(), items, self.fire_key, _end_key(self))


class _Plan:
    """Single source of the sketch operations: positions, copies, scratch.

    The plan's runs and law and the tests' literal reference all take their
    operations from here, so they cannot drift apart. Each layout method
    takes how a slot is addressed: ``framed`` ids, or literal ones.
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
        self._copy_offsets = range(0, self.copies * self._s_copy, self._s_copy)
        self._s_fam = self.copies * self.positions
        self._s_vert = len(FAMILIES) * self._s_fam
        self.cursor = 0
        self.tops = {(w, fam): 0 for w in range(1, stream.n + 1) for fam in FAMILIES}

    def _stack(self, w: int, fam: str, framed: bool) -> tuple[int, int]:
        """(first id of copy 1's line, rotation: its top if ``framed``) of stack (w, fam)."""
        line = self._stack_off + (w - 1) * self._s_vert + FAMILIES.index(fam) * self._s_fam
        return line, self.tops[(w, fam)] if framed else 0

    def slot(self, w: int, fam: str, copy: int, pos: int, framed: bool) -> int:
        line, rot = self._stack(w, fam, framed)
        line += (copy - 1) * self._s_copy
        return frame_id(line + pos, line, rot, self.positions)

    def increment(self, fam: str, w: int, r: int, framed: bool) -> list[tuple[int, int]]:
        """Shift the whole (w, fam) stack up by r, and return the swap pairs
        that move the next 2k^2*r scratch elements into the vacated bottom
        positions 1..r of its copies, addressed after the shift. Each position is
        framed once; its copies lie at the offsets ``_copy_offsets`` from it."""
        need = self.copies * r
        if self.cursor + need > self.big_m:
            raise CapacityError(
                f"scratch exhausted: need {need}, have {self.big_m - self.cursor}"
            )
        k = self.cursor
        self.cursor += need
        self.tops[(w, fam)] += r
        if self.tops[(w, fam)] >= self.positions:
            raise InvariantError(f"stack ({w}, {fam}) grew past {self.positions} positions")
        line, rot = self._stack(w, fam, framed)
        slots = [line + frame_id(pos, 0, rot, self.positions) for pos in range(1, r + 1)]
        return list(zip(range(k, k + need), [at + c for c in self._copy_offsets for at in slots]))

    def query_slots(self, u: int, v: int, framed: bool) -> list[tuple[int, int, tuple]]:
        """(x id, y id, hit coordinates) of the edge's 4k^2 pair queries,
        lexicographic in (i, j, x).

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
                    (1, self.slot(u, "A", t, pa, framed), self.slot(v, "C", t, pc, framed)),
                    (2, self.slot(u, "B", t, pb, framed), self.slot(v, "C", s, pc, framed)),
                    (3, self.slot(u, "A", s, pa, framed), self.slot(v, "D", t, pd, framed)),
                    (4, self.slot(u, "B", s, pb, framed), self.slot(v, "D", s, pd, framed)),
                )
                for x, ex, ey in quads:
                    seen.update((ex, ey))
                    out.append((ex, ey, (x, i, j)))
        if len(seen) != 8 * k * k:
            raise InvariantError("the edge's pair queries must touch disjoint elements")
        return out

    def cleanup_slots(self, u: int, v: int, framed: bool) -> list[int]:
        """The ids of the edge's single queries: every threshold-aligned index,
        base included, of all copies of both endpoints' stacks, bounded by
        stack extents."""
        out: list[int] = []
        for w in (u, v):
            for fam, base, step in (
                ("A", self.d_a, self.d_a1),
                ("B", self.d_a1, self.d_a1),
                ("C", self.d_b, self.d_b1),
                ("D", self.d_b1, self.d_b1),
            ):
                first, rot = self._stack(w, fam, framed)
                for pos in range(base, self.tops[(w, fam)] + 1, step):
                    at = first + frame_id(pos, 0, rot, self.positions)
                    out += [at + c for c in self._copy_offsets]
        return out


def _increments(plan: _Plan, u: int, v: int, fa: bool, fb: bool) -> list[tuple[str, int, int]]:
    """(family, vertex, r) of each increment of edge (u, v), in order."""
    incs = [(fam, w, 1) for w in (u, v) for fam in FAMILIES]
    if fa:
        incs += [("A", u, plan.d_a1), ("B", u, plan.d_a1)]
    if fb:
        incs += [("C", u, plan.d_b1), ("D", u, plan.d_b1)]
    return incs


def build_plan(
    stream: DirectedEdgeStream,
    hashes: HashOracles,
    grid: DegreeGrid,
    params: SnapshotParams,
) -> ScriptPlan:
    """Every run's ops on this hash draw, in framed ids (see ``EdgePlan``)."""
    plan = _Plan(stream, hashes, grid, params)
    fa = tuple(hashes.f(plan.d_a, k) for k in range(1, stream.m + 1))
    fb = tuple(hashes.f(plan.d_b, k) for k in range(1, stream.m + 1))
    budget_ok = sum(fa) + sum(fb) <= 2 * params.kappa * stream.m
    edge_plans, capacity_edge = [], None
    if budget_ok:
        for k, (u, v) in enumerate(stream.edges, start=1):
            incs = _increments(plan, u, v, fa[k - 1], fb[k - 1])
            try:
                swaps = tuple(SwapStage(tuple(plan.increment(*inc, True))) for inc in incs)
            except CapacityError:
                capacity_edge = k
                break
            stacks = [plan._stack(w, fam, True) for fam, w, _ in incs]
            turned = {line + c: r for line, r in stacks for c in plan._copy_offsets}
            xs, ys, coords = zip(*plan.query_slots(u, v, True))
            cleanups = plan.cleanup_slots(u, v, True)
            item = (
                (PermutationSpec(plan.universe, swaps), None),
                (QueryGroup(plan.universe, xs, ys), tuple((k, *c) for c in coords)),
                (QueryGroup(plan.universe, cleanups), (None,) * len(cleanups)),
            )
            edge_plans.append(EdgePlan(k, item, tuple(turned.items())))
    return ScriptPlan(
        universe=plan.universe,
        edge_plans=tuple(edge_plans),
        big_m=plan.big_m,
        hash_budget_ok=budget_ok,
        capacity_edge=capacity_edge,
        f_alpha=fa,
        f_beta=fb,
        fire_key=_FireKey(stream, hashes, grid, params, plan.big_m),
    )


# ---------------------------------------------------------------------------
# the classical stage (one map from a run's end to its law key) and the runner
# ---------------------------------------------------------------------------


class _FireKey:
    """``key(tag, outcome) -> (terminated_by, entry, value)`` for a fire, built
    once per plan (``build_plan``) with its arrival table; a module-level class,
    so a plan pickles.

    A cleanup (tag None) zeroes the run. A hit at tag (edge, x, i, j) selects
    an estimate entry: after a hit the estimator watches the rest of the
    stream, so the after-the-edge degree counts are exact; they come from the
    arrival table. The before counts are read off the hit coordinates: a hit
    at (i, j) puts the head at rounded degree d_a with i - 1 sampled
    out-edges, and the tail at d_b with j - 1. ``entries`` keeps each
    (edge, i, j)'s entry once computed.
    """

    def __init__(self, stream, hashes, grid, params, big_m: int) -> None:
        self.d_a, _, self.d_b, _ = params.validate_with(grid, hashes)
        self.stream, self.hashes, self.params = stream, hashes, params
        self.arrivals = _Arrivals(stream)
        self.half = big_m // 2
        self.entries: dict[tuple[int, int, int], tuple[int, int] | None] = {}

    def entry(self, edge_index: int, i: int, j: int) -> tuple[int, int] | None:
        at = (edge_index, i, j)
        if at not in self.entries:
            u, v = self.stream.edges[edge_index - 1]
            after = self.arrivals.after
            _, bu = _pseudobias(self.hashes, u, self.d_a, i - 1, *after(edge_index, u))
            _, bv = _pseudobias(self.hashes, v, self.d_b, j - 1, *after(edge_index, v))
            iu, iv = self.params.bin_of(bu), self.params.bin_of(bv)
            self.entries[at] = None if iu is None or iv is None else (iu, iv)
        return self.entries[at]

    def __call__(self, tag, outcome: QueryOutcome):
        if tag is None:
            return ("Cleanup", None, 0)
        edge_index, x, i, j = tag
        cell = self.entry(edge_index, i, j)
        # an out-of-class hit still terminates, but its output is the zero
        # matrix, so the key is what a run can actually show
        value = 0 if cell is None else outcome.sign * (self.half if x in (1, 4) else -self.half)
        return (outcome.value, cell, value)


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
    ``observer`` (test hook) receives (edge index, member ids) after each
    edge while the sketch is alive. The ids are the framed ones the plan's
    ops address: the literal member set framed by the rotations of
    ``EdgePlan.rotations`` up to that edge.
    """
    ell = params.ell
    if stream.m == 0:
        return _estimate(ell, ("StreamEnd", None, 0))
    if plan is None:
        plan = build_plan(stream, hashes, grid, params)
    tape = plan.tape
    handle = create(tape.universe, tape.members, master_seed=seed, handle_id=handle_id)
    return _estimate(ell, run_tagged(handle, tape, observer))


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
        idx = self.law.sample(purpose_rng("snapshot", master_seed), trials)
        return rows[idx], cols[idx], vals[idx]

    def entry_sums(self, master_seed: int, trials: int) -> np.ndarray:
        """The per-entry sums, an ell x ell int64 array, of ``trials`` runs drawn
        from ``law``, summed over their per-atom counts."""
        counts = self.law.draw_counts(purpose_rng("snapshot", master_seed), trials)
        sums = np.zeros((self.ell, self.ell), dtype=np.int64)
        for (_, entry, value), count in zip(self.atoms, counts.tolist()):
            if entry is not None:
                sums[entry] += count * value
        return sums


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
    den, nums = replay_numerators(plan.tape)
    nums = dict(sorted(nums.items(), key=lambda a: repr(a[0])))
    return SnapshotLaw(ell, plan.big_m, Law.from_numerators(den, nums))


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
    return params.copies if copies is None else count_param("copies", copies, 1)


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
    copies = _copies(params, copies)
    return terminal_law(stream, hashes, grid, params).entry_sums(master_seed, copies) / copies
