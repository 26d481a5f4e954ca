"""Reference models of the pseudosnapshot sketch, kept for the tests.

The plan's literal ops: ``inc_stages``/``inc_update`` shift a stack and swap
scratch into it, and ``edge_queries``/``edge_cleanups`` address its slots by
literal ids; ``build_plan`` emits the same ops in framed ids. ``SnapshotRun``
drives the three primitive moves (increment, edge queries, cleanup) on a
live handle one at a time, with literal ids and real shifts, so tests can
poke at them directly; ``literal_pass`` drives a whole run with them and
``literal_tagged_ops`` lists the same ops for a replay. ``folded_plan``
frames the literal ops by the generic fold, and ``frame_by_plan`` frames
literal member sets as the plan's runs hold them. ``StackMirror``
predicts the member set after each edge from per-stack position sets alone,
without touching a sketch, and checks the closed-form interval shape of every
stack.
"""
from pairsketch import (
    CapacityError,
    CyclicShift,
    PermutationSpec,
    QueryGroup,
    QueryOne,
    QueryOutcome,
    QueryPair,
    SwapStage,
    Update,
    create,
)
from pairsketch.permutation import Frame
from pairsketch.pseudosnapshot import FAMILIES, EdgePlan, _increments, _Plan, snapshot_universe
from permutation_reference import fold


def inc_stages(plan, fam, w, r):
    """One increment's two stages, uncompiled: shift the whole (w, fam) stack
    up by r, then swap the next 2k^2*r scratch elements into the vacated
    bottom positions."""
    shift = CyclicShift("stack", r, select=(frozenset({w}), frozenset({fam}), None))
    return shift, SwapStage(tuple(plan.increment(fam, w, r, False)))


def inc_update(plan, fam, w, r):
    """``inc_stages`` as one update."""
    return Update(PermutationSpec(plan.universe, inc_stages(plan, fam, w, r)))


def edge_queries(plan, u, v):
    """The 4k^2 pair queries of edge (u, v) with their hit coordinates, in literal ids."""
    return [(QueryPair(ex, ey), coords) for ex, ey, coords in plan.query_slots(u, v, False)]


def edge_cleanups(plan, u, v):
    """The single queries of edge (u, v), in literal ids."""
    return [QueryOne(x) for x in plan.cleanup_slots(u, v, False)]


def _edge_increments(plan, hashes, k, u, v):
    """(family, vertex, r) of each increment edge k = (u, v) makes, in order."""
    return _increments(plan, u, v, hashes.f(plan.d_a, k), hashes.f(plan.d_b, k))


def literal_pass(run, observer):
    """Drive a fresh ``SnapshotRun`` over its whole stream (hash budget kept).

    Returns ("Hit", (edge, x, i, j, sign)), ("Cleanup", None), ("Capacity",
    None) or ("StreamEnd", None); ``observer(edge, handle)`` sees the live
    handle after each edge the run survives, and reads what it needs.
    """
    for k, (u, v) in enumerate(run.stream.edges, start=1):
        try:
            for inc in _edge_increments(run.plan, run.hashes, k, u, v):
                run.inc(*inc)
        except CapacityError:
            return "Capacity", None
        hit = run.query_edge(u, v)
        if hit is not None:
            return "Hit", (k, *hit)
        if run.cleanup(u, v):
            return "Cleanup", None
        observer(k, run.handle)
    return "StreamEnd", None


def frame_by_plan(plan, seen):
    """(edge, members) pairs, each member set framed as a run on ``plan``
    holds it after that edge: by ``EdgePlan.rotations`` up to the edge."""
    frame = Frame(plan.universe)
    out = []
    for eplan, (k, ids) in zip(plan.edge_plans, seen):
        frame.rot.update(eplan.rotations)
        out.append((k, {frame(eid) for eid in ids}))
    return out


def folded_plan(stream, hashes, grid, params):
    """(edge plans, capacity edge) of ``build_plan`` by the generic fold: each
    edge's literal increment stages folded by one ``Frame``, and its literal
    query and cleanup ids framed by it one at a time."""
    plan = _Plan(stream, hashes, grid, params)
    fires = sum(hashes.f(d, k) for d in (plan.d_a, plan.d_b) for k in range(1, stream.m + 1))
    if fires > 2 * params.kappa * stream.m:
        return (), None
    frame = Frame(plan.universe)
    out = []
    for k, (u, v) in enumerate(stream.edges, start=1):
        try:
            incs = _edge_increments(plan, hashes, k, u, v)
            stages = [stage for inc in incs for stage in inc_stages(plan, *inc)]
        except CapacityError:
            return tuple(out), k
        swaps, turned = fold(frame, stages)
        queries = edge_queries(plan, u, v)
        xs, ys = [frame(op.x) for op, _ in queries], [frame(op.y) for op, _ in queries]
        cleanups = [frame(op.x) for op in edge_cleanups(plan, u, v)]
        item = (
            (PermutationSpec(plan.universe, swaps), None),
            (QueryGroup(plan.universe, xs, ys), tuple((k, *coords) for _, coords in queries)),
            (QueryGroup(plan.universe, cleanups), (None,) * len(cleanups)),
        )
        out.append(EdgePlan(k, item, tuple(turned.items())))
    return tuple(out), None


def literal_tagged_ops(stream, hashes, grid, params):
    """(universe, [(op, tag)]) of a run's literal ops, tagged as terminal_law tags them."""
    plan = _Plan(stream, hashes, grid, params)
    tagged = []
    for k, (u, v) in enumerate(stream.edges, start=1):
        try:
            ups = [inc_update(plan, *inc) for inc in _edge_increments(plan, hashes, k, u, v)]
        except CapacityError:
            break
        tagged += ((up, None) for up in ups)
        tagged += ((op, (k, *coords)) for op, coords in edge_queries(plan, u, v))
        tagged += ((op, None) for op in edge_cleanups(plan, u, v))
    return plan.universe, tagged


class SnapshotRun:
    """Live handle plus plan state, exposing the three primitive moves.

    Mainly for poking at the primitives directly; `run_single` drives the
    same operations through a prebuilt plan.
    """

    def __init__(self, stream, hashes, grid, params, seed, *, handle_id=0):
        self.plan = _Plan(stream, hashes, grid, params)
        self.stream, self.hashes, self.params = stream, hashes, params
        self.handle = create(
            self.plan.universe,
            range(self.plan.big_m),
            master_seed=seed,
            handle_id=handle_id,
        )

    def inc(self, family: str, vertex: int, r: int) -> None:
        self.handle.update(inc_update(self.plan, family, vertex, r).perm)

    def query_edge(self, u: int, v: int):
        """First non-Bot among the 4k^2 pair queries, as (x, i, j, sign)."""
        for op, (x, i, j) in edge_queries(self.plan, u, v):
            outcome = self.handle.query_pair(op.x, op.y)
            if outcome is not QueryOutcome.BOT:
                return (x, i, j, 1 if outcome is QueryOutcome.PLUS else -1)
        return None

    def cleanup(self, u: int, v: int) -> bool:
        """True when a cleanup query fires, which ends the whole run."""
        for op in edge_cleanups(self.plan, u, v):
            if self.handle.query_one(op.x) is not QueryOutcome.BOT:
                return True
        return False


class StackMirror:
    """Predicts the member set after each edge without touching a sketch.

    Keeps one alive-position set per (vertex, family); increments shift and
    bottom-fill it, the edge's queries then wipe every threshold-aligned
    position of both endpoints. Also checks the closed-form interval shape:
    with no subsample fires the stack is a bottom segment, otherwise a full
    bottom plus one suffix slab per fire with shared offsets.
    """

    def __init__(self, stream, hashes, grid, params):
        params.validate_with(grid, hashes)
        self.stream = stream
        self.params = params
        self.kappa = params.kappa
        self.copies = 2 * params.kappa**2
        a_idx, b_idx = params.class_pair
        self.d_a, self.d_a1 = grid.levels[a_idx], grid.levels[a_idx + 1]
        self.d_b, self.d_b1 = grid.levels[b_idx], grid.levels[b_idx + 1]
        self.big_m = params.capacity_c * params.kappa**3 * stream.m
        self.universe = snapshot_universe(stream.n, stream.m, params)
        self._plan_for_ids = _Plan(stream, hashes, grid, params)
        self.sets = {
            (w, fam): set() for w in range(1, stream.n + 1) for fam in FAMILIES
        }
        self.cursor = 0
        self.r = [0] * (stream.n + 1)
        self.big_r_ab = [0] * (stream.n + 1)
        self.big_r_cd = [0] * (stream.n + 1)
        self.fa = tuple(hashes.f(self.d_a, k) for k in range(1, stream.m + 1))
        self.fb = tuple(hashes.f(self.d_b, k) for k in range(1, stream.m + 1))
        self.edge_ptr = 0
        self.capacity_hit = False

    def _inc(self, w, fam, r):
        need = self.copies * r
        if self.cursor + need > self.big_m:
            self.capacity_hit = True
            return False
        s = self.sets[(w, fam)]
        self.sets[(w, fam)] = {p + r for p in s} | set(range(1, r + 1))
        self.cursor += need
        return True

    def step(self) -> int:
        """Process the next edge; returns its 1-based index."""
        if self.capacity_hit or self.edge_ptr >= self.stream.m:
            raise CapacityError("no more edges to mirror")
        k = self.edge_ptr + 1
        u, v = self.stream.edges[self.edge_ptr]
        for w in (u, v):
            for fam in FAMILIES:
                if not self._inc(w, fam, 1):
                    return k
        if self.fa[k - 1]:
            for fam in ("A", "B"):
                if not self._inc(u, fam, self.d_a1):
                    return k
        if self.fb[k - 1]:
            for fam in ("C", "D"):
                if not self._inc(u, fam, self.d_b1):
                    return k
        for w in (u, v):
            for fam, base, step_ in (
                ("A", self.d_a, self.d_a1),
                ("B", self.d_a1, self.d_a1),
                ("C", self.d_b, self.d_b1),
                ("D", self.d_b1, self.d_b1),
            ):
                s = self.sets[(w, fam)]
                if s:
                    top = max(s)
                    wipe = set(range(base, top + 1, step_))
                    s.difference_update(wipe)
        for w in (u, v):
            self.r[w] += 1
        self.big_r_ab[u] += self.fa[k - 1]
        self.big_r_cd[u] += self.fb[k - 1]
        self.edge_ptr = k
        return k

    def expected_members(self) -> set[int]:
        members = set(range(self.cursor, self.big_m))
        for (w, fam), positions in self.sets.items():
            for copy in range(1, self.copies + 1):
                for p in positions:
                    members.add(self._plan_for_ids.slot(w, fam, copy, p, False))
        return members

    def check_stack_form(self, w: int) -> None:
        """Asserts the interval-union shape for both stack pairs of w."""
        self._check_pair(
            self.sets[(w, "A")], self.sets[(w, "B")],
            self.d_a, self.d_a1, self.r[w], self.big_r_ab[w],
        )
        self._check_pair(
            self.sets[(w, "C")], self.sets[(w, "D")],
            self.d_b, self.d_b1, self.r[w], self.big_r_cd[w],
        )

    def _check_pair(self, s_e, s_f, d_lo, d_hi, r, big_r):
        if big_r == 0:
            assert s_e == set(range(1, min(r, d_lo - 1) + 1)), (s_e, r, d_lo)
            assert s_f == set(range(1, min(r, d_hi - 1) + 1)), (s_f, r, d_hi)
            return
        assert s_e >= set(range(1, d_lo)), "bottom of the low stack must be full"
        assert s_f >= set(range(1, d_hi)), "bottom of the high stack must be full"

        def slab_constraints(s, bases_ends):
            """Per slab, the set of admissible offsets rho in [1, r]."""
            allowed = []
            covered = set(range(1, bases_ends[0][0] + 1)) - {bases_ends[0][0]}
            for base, end in bases_ends:
                slab = {p for p in s if base <= p < end}
                expect_all = set(range(base + 1, end))
                if slab:
                    start = min(slab)
                    if slab != set(range(start, end)):
                        raise AssertionError(f"slab {slab} is not a suffix of [{base}, {end})")
                    rho = start - base
                    allowed.append({rho} if 1 <= rho <= r else set())
                else:
                    allowed.append(set(range(end - base, r + 1)))
                covered |= expect_all | {base}
            stray = {p for p in s if p >= bases_ends[0][0]} - covered
            if stray:
                raise AssertionError(f"positions {stray} outside every slab")
            return allowed

        e_slabs = [
            (d_lo + (i - 1) * d_hi, d_lo + i * d_hi) for i in range(1, big_r)
        ] + [(d_lo + (big_r - 1) * d_hi, big_r * d_hi + min(r + 1, d_lo))]
        f_slabs = [
            (i * d_hi, (i + 1) * d_hi) for i in range(1, big_r)
        ] + [(big_r * d_hi, big_r * d_hi + min(r + 1, d_hi))]
        allowed_e = slab_constraints(s_e, e_slabs)
        allowed_f = slab_constraints(s_f, f_slabs)
        for i, (ae, af) in enumerate(zip(allowed_e, allowed_f), start=1):
            if not (ae & af):
                raise AssertionError(
                    f"no shared offset for slab {i}: {ae} vs {af}"
                )
