"""Framed op sequences: shifts folded into later ids must change nothing observable.

The generic fold (``permutation_reference.fold``) walks an op sequence once
with a ``permutation.Frame`` and emits its swaps and queries on framed ids,
with no shift left. Run on a handle that never sees a shift, the framed
sequence must draw the same outcomes from the same seed as the literal
sequence, and its members must be the framed literal members. Heavy-edge and
snapshot runs and laws use ops their estimators frame by arithmetic; here
they are checked op for op against the generic fold, and run against the
literal references.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsketch import (
    CyclicShift,
    PermutationSpec,
    QueryOne,
    QueryOutcome,
    QueryPair,
    SwapStage,
    Update,
    create,
)
from pairsketch import heavy_edges, pseudosnapshot
from pairsketch.pseudosnapshot import DegreeGrid, HashOracles, SnapshotParams
from pairsketch.sketch import Tape, replay_law, script_items
from pairsketch.permutation import Frame, compile_shift, frame_id
from permutation_reference import fold, frame_steps
from snapshot_reference import (
    SnapshotRun,
    folded_plan,
    frame_by_plan,
    literal_pass,
    literal_tagged_ops,
)
from test_pseudosnapshot import FIX_GRID, FIX_HASHES, FIX_PARAMS, FIX_STREAM, random_directed
from test_sketch import _factor_values
from test_universe import universes


@st.composite
def mixed_scripts(draw):
    """(universe, members, ops): updates of one to three swap or shift stages,
    queries of both kinds and reads, interleaved."""
    universe = draw(universes())
    ids = st.integers(0, universe.size - 1)
    members = draw(st.sets(ids, min_size=1, max_size=12))
    ops = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["update", "update", "one", "pair", "read"]))
        if kind == "update":
            stages = []
            for _ in range(draw(st.integers(1, 3))):
                if universe.size >= 2 and draw(st.booleans()):
                    pool = draw(st.permutations(list(range(universe.size))))
                    k = draw(st.integers(1, min(3, universe.size // 2)))
                    stages.append(SwapStage(tuple((pool[2 * i], pool[2 * i + 1]) for i in range(k))))
                else:
                    block = draw(st.sampled_from(universe.blocks))
                    select = tuple(
                        None
                        if draw(st.booleans())
                        else frozenset(draw(st.sets(st.sampled_from(_factor_values(f)))))
                        for f in block.factors[:-1]
                    )
                    stages.append(CyclicShift(block.name, draw(st.integers(-7, 7)), select))
            ops.append(Update(PermutationSpec(universe, tuple(stages))))
        elif kind == "pair" and universe.size >= 2:
            x, y = draw(st.lists(ids, min_size=2, max_size=2, unique=True))
            ops.append(QueryPair(x, y))
        elif kind == "one":
            ops.append(QueryOne(draw(ids)))
        else:
            ops.append("read")
    return universe, members, ops


@settings(max_examples=300, deadline=None)
@given(mixed_scripts(), st.integers(0, 3))
def test_framed_script_on_a_plain_store_matches_the_literal_one(case, hid):
    universe, members, ops = case
    literal = create(universe, sorted(members), master_seed=5, handle_id=hid)
    framed = create(universe, sorted(members), master_seed=5, handle_id=hid)
    frame = Frame(universe)
    for op in ops:
        if op == "read":
            assert framed.debug_members() == {frame(e) for e in literal.debug_members()}
        elif isinstance(op, Update):
            swaps, _ = fold(frame, op.perm.stages)
            literal.update(op.perm)
            framed.update(PermutationSpec(universe, swaps))
        else:
            if isinstance(op, QueryPair):
                want = literal.query_pair(op.x, op.y)
                got = framed.query_pair(frame(op.x), frame(op.y))
            else:
                want, got = literal.query_one(op.x), framed.query_one(frame(op.x))
            assert got is want
            if got.fires():
                return
        # the framed handle never sees a shift, so its store holds no rotation
        assert framed._store.frame is None
    assert framed.debug_members() == {frame(e) for e in literal.debug_members()}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_unframe_all_inverts_frame(data):
    universe = data.draw(universes())
    frame = Frame(universe)
    for _ in range(data.draw(st.integers(0, 4))):
        block = data.draw(st.sampled_from(universe.blocks))
        select = tuple(
            None if data.draw(st.booleans())
            else frozenset(data.draw(st.sets(st.sampled_from(_factor_values(f)))))
            for f in block.factors[:-1]
        )
        # zero and negative amounts included: a line can turn back to rotation 0
        shift = CyclicShift(block.name, data.draw(st.integers(-7, 7)), select)
        frame.turn(compile_shift(universe, shift))
    for lay in universe.layout():
        # a rotation set directly may be zero, negative or past the line length
        line = lay.offset + lay.mod * data.draw(st.integers(0, (lay.end - lay.offset) // lay.mod - 1))
        frame.rot[line] = data.draw(st.integers(-9, 9))
    ids = data.draw(st.sets(st.integers(0, universe.size - 1)))
    framed = {frame(eid) for eid in ids}
    assert len(framed) == len(ids)
    assert frame.unframe_all(framed) == ids
    assert frame.unframe_all(range(universe.size)) == set(range(universe.size))


def test_frame_id_inverts_with_the_opposite_rotation():
    for r in range(-7, 8):
        ids = [frame_id(e, 10, r, 5) for e in range(10, 15)]
        assert sorted(ids) == list(range(10, 15))
        assert [frame_id(s, 10, -r, 5) for s in ids] == list(range(10, 15))


# -- heavy edges -----------------------------------------------------------------


def _directed(n, m, seed):
    rng = np.random.default_rng(seed)
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    idx = rng.choice(len(pool), size=m, replace=False)
    return heavy_edges.DirectedEdgeStream(n, tuple(pool[i] for i in idx))


def _heavy_literal(stream, d_H, d_T, seed, hid):
    """(output, framed member set after each edge survived) of the literal script."""
    universe, script = heavy_edges.build_script(stream, d_H, d_T)
    members = heavy_edges._framed_edges(stream, d_H, d_T).members
    handle = create(universe, members, master_seed=seed, handle_id=hid)
    seen = []
    for ell in range(stream.m):
        handle.update(script[2 * ell].perm)
        query = script[2 * ell + 1]
        out = handle.query_pair(query.x, query.y)
        if out.fires():
            break
        seen.append(handle.debug_members())
    else:
        out = None
    updates = [op.perm for op in script if isinstance(op, Update)]
    seen = frame_steps(universe, updates, seen)
    return (0 if out is None else out.sign * 2 * stream.m), seen


@pytest.mark.parametrize("d_H, d_T", [(2, 1), (3, 3)])
def test_heavy_runs_equal_the_literal_script(d_H, d_T):
    stream = _directed(8, 20, 2)
    outputs = set()
    for hid in range(200):
        seen = []
        got = heavy_edges.run_single(
            stream, d_H, d_T, 7, handle_id=hid, observer=lambda ell, mem: seen.append(mem)
        )
        want, want_seen = _heavy_literal(stream, d_H, d_T, 7, hid)
        assert (got, seen) == (want, want_seen), hid
        outputs.add(got)
    assert len(outputs) > 1


def test_heavy_tape_items_equal_the_generic_fold():
    # the tape frames each swap by the lines' running degrees; a Frame folding
    # the literal stages edge by edge must give the same swap and rotations
    for stream in (_directed(8, 20, 2), _directed(12, 90, 5)):
        universe = stream._universe
        frame = Frame(universe)
        items = list(stream._updates)
        assert len(items) == stream.m
        for k, (perm, turned) in enumerate(items):
            swaps, want = fold(frame, heavy_edges._edge_stages(stream.edges, stream.n, universe, k))
            assert perm == PermutationSpec(universe, swaps), k
            assert turned == want, k


def test_heavy_law_equals_the_literal_replay():
    stream = _directed(8, 20, 2)
    for d_H, d_T in ((1, 1), (2, 1), (3, 2)):
        universe, script = heavy_edges.build_script(stream, d_H, d_T)
        m = stream.m
        members = heavy_edges._framed_edges(stream, d_H, d_T).members
        want = replay_law(Tape(
            universe, members, script_items(universe, ((op, None) for op in script)),
            lambda _, o: o.sign * 2 * m, 0,
        ))
        got = heavy_edges.terminal_law(stream, d_H, d_T)
        assert list(got.atoms.items()) == list(want.atoms.items())


# -- pseudosnapshot ---------------------------------------------------------------


@pytest.fixture(scope="module")
def fix_plan():
    return pseudosnapshot.build_plan(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)


class _Greedy(HashOracles):
    """Counts each subsample fire 2 * kappa + 1 times: the one way to blow the
    hash budget, which real fires (at most two per edge) cannot."""

    def f(self, d, edge_index):
        return (2 * self.kappa + 1) * super().f(d, edge_index)


def _snapshot_cases():
    """(stream, hashes, grid, params, expected end): random streams, one that
    runs out of scratch and one with a blown hash budget."""
    cases = []
    for n, m, seed, hash_seed in ((12, 30, 1, 3), (12, 40, 2, 11), (8, 25, 3, 5), (6, 12, 4, 2)):
        grid = DegreeGrid.from_eps(n, "0.5")
        top = len(grid.levels) - 2
        params = SnapshotParams(
            kappa=2, eps="0.5", thresholds=("-1", "0"), class_pair=(top, seed % (top + 1))
        )
        hashes = HashOracles(seed=hash_seed, kappa=2, eps="0.5")
        cases.append((random_directed(n, m, seed), hashes, grid, params, "StreamEnd"))
    tight = SnapshotParams(
        kappa=2, eps="0.5", thresholds=("-1", "0"), class_pair=FIX_PARAMS.class_pair, capacity_c=1
    )
    cases.append((FIX_STREAM, FIX_HASHES, FIX_GRID, tight, "Capacity"))
    greedy = _Greedy(seed=7, kappa=2, eps="0.5")
    cases.append((FIX_STREAM, greedy, FIX_GRID, FIX_PARAMS, "HashBudget"))
    return cases


@pytest.mark.parametrize("case", range(6))
def test_snapshot_plans_equal_the_generic_fold(case):
    stream, hashes, grid, params, end = _snapshot_cases()[case]
    plan = pseudosnapshot.build_plan(stream, hashes, grid, params)
    assert pseudosnapshot._end_key(plan)[0] == end
    want, capacity_edge = folded_plan(stream, hashes, grid, params)
    assert plan.capacity_edge == capacity_edge
    assert len(plan.edge_plans) == len(want)
    assert end == "HashBudget" or want
    for got, ref in zip(plan.edge_plans, want):
        assert got.edge_index == ref.edge_index
        # op for op: the same swap stages, query pairs with hit coordinates,
        # cleanup ids and tags; the rotations as a mapping, their order may differ
        assert got.item[0] == ref.item[0], got.edge_index
        assert got.queries == ref.queries, got.edge_index
        assert got.cleanups == ref.cleanups, got.edge_index
        assert [tags for _, tags in got.item] == [tags for _, tags in ref.item], got.edge_index
        assert all(op.universe is plan.universe for op, _ in got.item)
        assert dict(got.rotations) == dict(ref.rotations), got.edge_index
        assert len(got.rotations) == len(ref.rotations)


def test_snapshot_plans_hold_swaps_only(fix_plan):
    for eplan in fix_plan.edge_plans:
        for op, tags in eplan.item:
            if tags is None:
                assert all(isinstance(stage, SwapStage) for stage in op.stages)


def test_snapshot_runs_equal_the_literal_moves(fix_plan):
    key = pseudosnapshot._fire_key(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, fix_plan.big_m)
    # every run that passes an edge holds the same members after it, so the
    # literal ones are read in the first run to pass it and framed once
    literal_at, framed_at = {}, {}
    ends = set()
    for hid in range(200):
        seen, want_seen = [], []
        est = pseudosnapshot.run_single(
            FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, 11, handle_id=hid, plan=fix_plan,
            observer=lambda k, mem: seen.append((k, mem)),
        )

        def literal(k, handle):
            want_seen.append((k, handle.size))
            if k not in literal_at:
                literal_at[k] = handle.debug_members()

        run = SnapshotRun(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, 11, handle_id=hid)
        end, hit = literal_pass(run, literal)
        if len(framed_at) < len(literal_at):
            framed_at = dict(frame_by_plan(fix_plan, sorted(literal_at.items())))
        if end == "Hit":
            edge, x, i, j, sign = hit
            outcome = QueryOutcome.PLUS if sign == 1 else QueryOutcome.MINUS
            want = key((edge, x, i, j), outcome)
        elif end == "Cleanup":
            want = key(None, QueryOutcome.IN)
        else:
            want = pseudosnapshot._end_key(fix_plan)
        assert est.key == want, hid
        assert [(k, len(mem)) for k, mem in seen] == want_seen, hid
        assert all(mem == framed_at[k] for k, mem in seen), hid
        ends.add(est.terminated_by)
    assert {"Plus", "StreamEnd"} <= ends


def test_snapshot_law_equals_the_literal_replay(fix_plan):
    params = (FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)
    key = pseudosnapshot._fire_key(*params, fix_plan.big_m)
    universe, tagged = literal_tagged_ops(*params)
    want = replay_law(Tape(
        universe, range(fix_plan.big_m), script_items(universe, tagged), key,
        pseudosnapshot._end_key(fix_plan),
    ))
    got = pseudosnapshot.terminal_law(*params, plan=fix_plan).law
    # terminal_law orders its atoms by the repr of their keys
    assert list(got.atoms.items()) == sorted(want.atoms.items(), key=lambda a: repr(a[0]))
    assert len(got.atoms) > 2
