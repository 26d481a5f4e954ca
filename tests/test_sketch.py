import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from pairsketch import (
    Block,
    CyclicShift,
    IntRange,
    InvalidInitError,
    InvalidQueryError,
    Labels,
    PermutationError,
    PermutationSpec,
    QueryGroup,
    QueryOne,
    QueryOutcome,
    QueryPair,
    ReplayStep,
    ReplayTrace,
    ScriptError,
    SketchDestroyedError,
    SwapStage,
    UniverseSpec,
    Update,
    create,
    enumerate_distribution,
    replay_noiseless,
    run_script,
    swap_perm,
)
from pairsketch import bhm, heavy_edges, pseudosnapshot, triangle
from pairsketch.sketch import FIRE_LAW, _MemberStore
from permutation_reference import permute_set
from test_universe import universes

LINE = UniverseSpec((Block("v", (IntRange(0, 15),)),))


def fresh(members, seed=0, hid=0):
    return create(LINE, members, master_seed=seed, handle_id=hid)


# -- basic laws --------------------------------------------------------------


def test_create_rejects_empty_and_bad_ids():
    with pytest.raises(InvalidInitError):
        fresh([])
    with pytest.raises(InvalidInitError):
        fresh([99])
    with pytest.raises(InvalidInitError):
        fresh([1, 1])


def test_query_one_absent_is_silent_bot():
    h = fresh([0, 1, 2])
    assert h.query_one(7) is QueryOutcome.BOT
    assert h.size == 3


def test_query_one_miss_deletes_the_endpoint():
    # seed scan: find a handle whose first draw misses
    for hid in range(50):
        h = fresh([0, 1, 2, 3], hid=hid)
        if h.query_one(2) is QueryOutcome.BOT:
            assert h.debug_members() == {0, 1, 3}
            return
    pytest.fail("no miss in 50 seeds (p ~ 0.25**50)")


def test_query_one_fires_in_and_destroys():
    for hid in range(50):
        h = fresh([0, 1, 2, 3], hid=hid)
        if h.query_one(2) is QueryOutcome.IN:
            assert h.destroyed
            assert h.final_outcome is QueryOutcome.IN
            with pytest.raises(SketchDestroyedError):
                h.query_one(0)
            with pytest.raises(SketchDestroyedError):
                h.debug_members()
            with pytest.raises(SketchDestroyedError):
                h.update(swap_perm(LINE, (0, 1)))
            return
    pytest.fail("no fire in 50 seeds")


def test_query_one_on_singleton_always_fires():
    for hid in range(20):
        h = fresh([5], hid=hid)
        assert h.query_one(5) is QueryOutcome.IN


def test_query_pair_rejects_equal_endpoints():
    h = fresh([0, 1])
    with pytest.raises(InvalidQueryError):
        h.query_pair(3, 3)


def test_query_pair_disjoint_changes_nothing():
    h = fresh([0, 1, 2])
    assert h.query_pair(8, 9) is QueryOutcome.BOT
    assert h.debug_members() == {0, 1, 2}


def test_query_pair_both_present_size_two_always_plus():
    for hid in range(20):
        h = fresh([3, 4], hid=hid)
        assert h.query_pair(3, 4) is QueryOutcome.PLUS
        assert h.destroyed


def test_query_pair_both_present_miss_deletes_both():
    for hid in range(80):
        h = fresh(list(range(10)), hid=hid)
        if h.query_pair(0, 1) is QueryOutcome.BOT:
            assert h.debug_members() == set(range(2, 10))
            return
    pytest.fail("no miss in 80 seeds (miss prob 0.8 each)")


def test_query_pair_one_present_miss_deletes_the_present_one():
    for hid in range(80):
        h = fresh(list(range(10)), hid=hid)
        if h.query_pair(9, 12) is QueryOutcome.BOT:
            assert h.debug_members() == set(range(9))
            return
    pytest.fail("no miss in 80 seeds (miss prob 0.9 each)")


def test_one_present_pair_on_singleton_always_fires_signed():
    # the miss probability 1 - 1/|T| vanishes at |T| = 1
    seen = set()
    for hid in range(40):
        h = fresh([4], hid=hid)
        out = h.query_pair(4, 9)
        assert out in (QueryOutcome.PLUS, QueryOutcome.MINUS)
        seen.add(out)
    assert seen == {QueryOutcome.PLUS, QueryOutcome.MINUS}


def test_same_seed_same_trajectory():
    script = [QueryPair(0, 1), QueryOne(2), QueryPair(3, 9), QueryOne(5)]
    a = run_script(fresh(list(range(8)), seed=7, hid=3), list(script))
    b = run_script(fresh(list(range(8)), seed=7, hid=3), list(script))
    c = run_script(fresh(list(range(8)), seed=7, hid=4), list(script))
    assert a == b
    # different handle id gives an independent stream; not necessarily different,
    # but across several ops a collision would be a miracle
    d = [run_script(fresh(list(range(8)), seed=7, hid=k), list(script)) for k in range(20)]
    assert len(set(d)) > 1
    assert c in d


def add_via_dummy(handle, dummy: int, target: int) -> None:
    """Swap a scratch member into a new identity (the only way to 'insert')."""
    handle.update(swap_perm(handle.universe, (dummy, target)))


def test_add_via_dummy_swaps_identity():
    h = fresh([0, 1])
    add_via_dummy(h, 0, 9)
    assert h.debug_members() == {1, 9}


# -- updates -----------------------------------------------------------------

GRID = UniverseSpec(
    (
        Block("stack", (IntRange(1, 3), Labels(("H", "T")), IntRange(0, 4))),
        Block("scratch", (IntRange(0, 9),)),
    )
)


def test_update_applies_stages_in_order():
    scratch0 = GRID.encode("scratch", (0,))
    slot = GRID.encode("stack", (2, "H", 0))
    h = create(GRID, [scratch0, GRID.encode("stack", (2, "H", 1))])
    perm = PermutationSpec(
        GRID,
        (
            SwapStage(((scratch0, slot),)),
            CyclicShift("stack", 1, (frozenset({2}), None)),
        ),
    )
    h.update(perm)
    assert h.debug_members() == {
        GRID.encode("stack", (2, "H", 1)),
        GRID.encode("stack", (2, "H", 2)),
    }


def test_shift_only_touches_selected_vertices():
    ids = [
        GRID.encode("stack", (1, "H", 0)),
        GRID.encode("stack", (2, "H", 0)),
        GRID.encode("stack", (3, "T", 4)),
    ]
    h = create(GRID, ids)
    h.update(PermutationSpec(GRID, (CyclicShift("stack", 1, (frozenset({2, 3}), None)),)))
    assert h.debug_members() == {
        GRID.encode("stack", (1, "H", 0)),
        GRID.encode("stack", (2, "H", 1)),
        GRID.encode("stack", (3, "T", 0)),  # wrapped 4 -> 0
    }


def test_update_size_is_preserved_and_universe_checked():
    h = fresh([0, 1, 2])
    other = UniverseSpec((Block("v", (IntRange(0, 7),)),))
    from pairsketch.errors import ScriptError

    with pytest.raises(ScriptError):
        h.update(swap_perm(other, (0, 1)))
    h.update(swap_perm(LINE, (2, 3), (0, 5)))
    assert h.debug_members() == {5, 1, 3}


def test_overlapping_swap_pairs_rejected():
    with pytest.raises(PermutationError):
        swap_perm(LINE, (0, 1), (1, 2))
    with pytest.raises(PermutationError):
        swap_perm(LINE, (3, 3))


@st.composite
def grid_perms(draw):
    n_stages = draw(st.integers(1, 3))
    stages = []
    for _ in range(n_stages):
        if draw(st.booleans()):
            pool = draw(st.permutations(list(range(GRID.size))))
            k = draw(st.integers(1, 4))
            stages.append(SwapStage(tuple((pool[2 * i], pool[2 * i + 1]) for i in range(k))))
        else:
            verts = draw(st.sets(st.integers(1, 3), min_size=1)) if draw(st.booleans()) else None
            labels = draw(st.sets(st.sampled_from(["H", "T"]), min_size=1)) if draw(st.booleans()) else None
            stages.append(
                CyclicShift(
                    "stack",
                    draw(st.integers(-6, 6)),
                    (None if verts is None else frozenset(verts), None if labels is None else frozenset(labels)),
                )
            )
    return PermutationSpec(GRID, tuple(stages))


@settings(max_examples=150, deadline=None)
@given(grid_perms(), st.sets(st.integers(0, GRID.size - 1), min_size=1, max_size=12))
def test_bucketed_update_matches_per_element_application(perm, members):
    h = create(GRID, sorted(members))
    h.update(perm)
    assert h.debug_members() == permute_set(perm, set(members))


def _factor_values(factor):
    return list(range(factor.lo, factor.hi + 1)) if isinstance(factor, IntRange) else list(factor.names)


@st.composite
def universe_perms(draw):
    """A permutation of a random universe: swaps, and shifts of any selection."""
    universe = draw(universes())
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        if universe.size >= 2 and draw(st.booleans()):
            pool = draw(st.permutations(list(range(universe.size))))
            k = draw(st.integers(1, min(4, universe.size // 2)))
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
    return PermutationSpec(universe, tuple(stages))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_update_replay_and_mapping_match_the_value_space_reference(data):
    perm = data.draw(universe_perms())
    universe = perm.universe
    members = data.draw(st.sets(st.integers(0, universe.size - 1), min_size=1, max_size=12))
    want = permute_set(perm, members)
    h = create(universe, sorted(members))
    h.update(perm)
    assert h.debug_members() == want
    assert replay_noiseless(universe, sorted(members), [Update(perm)]).survivors == want
    images = [permute_set(perm, {eid}).pop() for eid in range(universe.size)]
    assert perm.as_mapping_array().tolist() == images


def _create_outcome(universe, members):
    """(members, size) of a fresh handle, or (error type, message)."""
    try:
        h = create(universe, members)
    except InvalidInitError as exc:
        return type(exc), str(exc)
    return h.debug_members(), h.size


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, GRID.size + 3), st.integers(-3, GRID.size + 3), st.sampled_from([1, 2, -1]))
@example(GRID.size - 12, GRID.size, 1)  # stack (six lines) and scratch (one line)
@example(0, 0, 1)
@example(-1, 3, 1)
@example(GRID.size - 2, GRID.size + 4, 1)
def test_range_create_matches_list_create(start, stop, step):
    ids = range(start, stop, step)
    assert _create_outcome(GRID, ids) == _create_outcome(GRID, list(ids))


# -- noiseless replay ----------------------------------------------------------


def _reference_replay(universe, members, script):
    """Per-element noiseless replay through ``permute_set``."""
    current = set(members)
    initial_size = len(current)
    survival = Fraction(1)
    steps = []
    for i, op in enumerate(script):
        if isinstance(op, Update):
            current = permute_set(op.perm, current)
            continue
        n = len(current)
        if isinstance(op, QueryOne):
            present = op.x in current
            steps.append(ReplayStep(i, "one", op.x, None, present, False, n))
            if present:
                survival *= Fraction(n - 1, n)
                current.discard(op.x)
        else:
            px, py = op.x in current, op.y in current
            steps.append(ReplayStep(i, "pair", op.x, op.y, px, py, n))
            if px or py:
                survival *= Fraction(n - px - py, n)
                current -= {op.x, op.y}
    assert survival == Fraction(len(current), initial_size)
    return ReplayTrace(frozenset(current), survival, tuple(steps))


def grid_scripts():
    ids = st.integers(0, GRID.size - 1)
    return st.lists(
        st.one_of(
            st.builds(Update, grid_perms()),
            st.builds(QueryOne, ids),
            st.builds(QueryPair, ids, ids).filter(lambda q: q.x != q.y),
        ),
        max_size=10,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_store_replay_matches_per_element_reference(data):
    members = data.draw(st.sets(st.integers(0, GRID.size - 1), min_size=1, max_size=20))
    script = data.draw(grid_scripts())
    assert replay_noiseless(GRID, sorted(members), script) == _reference_replay(
        GRID, members, script
    )


def test_replay_validates_members_like_create():
    for members in ([], [0, 16], [3, 3]):
        with pytest.raises(InvalidInitError):
            replay_noiseless(LINE, members, [])
    with pytest.raises(InvalidInitError):
        replay_noiseless(LINE, range(10, 17), [])


def test_replay_rejects_query_endpoints_outside_universe():
    for op in (QueryOne(16), QueryOne(-1), QueryPair(0, 16), QueryPair(99, 1)):
        with pytest.raises(InvalidQueryError):
            replay_noiseless(LINE, [0, 1, 2], [op])


def test_replay_pair_hit_example():
    trace = replay_noiseless(LINE, [0, 1, 2, 3], [QueryPair(0, 1)])
    assert trace.survivors == {2, 3}
    assert trace.survival == Fraction(1, 2)
    (step,) = trace.steps
    assert (step.present_x, step.present_y, step.size_before) == (True, True, 4)


def test_replay_mixed_script():
    script = [
        QueryPair(0, 9),  # one present: deletes 0
        Update(swap_perm(LINE, (1, 8))),
        QueryOne(8),  # present after swap: deletes 8
        QueryPair(10, 11),  # disjoint
    ]
    trace = replay_noiseless(LINE, [0, 1, 2, 3], script)
    assert trace.survivors == {2, 3}
    assert trace.survival == Fraction(3, 4) * Fraction(2, 3)
    kinds = [(s.kind, s.present_count, s.size_before) for s in trace.steps]
    assert kinds == [("pair", 1, 4), ("one", 1, 3), ("pair", 0, 2)]


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.integers(0, 15), min_size=1, max_size=8),
    st.lists(
        st.one_of(
            st.builds(QueryOne, st.integers(0, 15)),
            st.builds(QueryPair, st.integers(0, 15), st.integers(0, 15)).filter(
                lambda q: q.x != q.y
            ),
        ),
        max_size=6,
    ),
)
def test_replay_survival_equals_survivor_fraction(members, script):
    trace = replay_noiseless(LINE, sorted(members), script)
    assert trace.survival == Fraction(len(trace.survivors), len(members))
    # conditioned on all-Bot, a real handle holds exactly the survivor set
    for hid in range(200):
        h = create(LINE, sorted(members), handle_id=hid)
        out = run_script(h, script)
        if not h.destroyed:
            assert h.debug_members() == set(trace.survivors)
            assert all(o is QueryOutcome.BOT for o in out)
            return
    if trace.survival > Fraction(1, 4):
        pytest.fail("no surviving run in 200 seeds despite survival > 1/4")


# -- order independence of disjoint query batches ------------------------------


def test_disjoint_batch_outcomes_are_order_independent():
    """Fire events of disjoint queries keep their law under reordering."""
    wide = UniverseSpec((Block("v", (IntRange(0, 15),)),))
    members = list(range(8))
    queries = [QueryPair(0, 1), QueryPair(2, 3), QueryPair(4, 5), QueryOne(6)]
    rng = np.random.default_rng(1234)
    orders = [rng.permutation(len(queries)) for _ in range(10)]
    trials = 2500
    counts = []
    for oi, order in enumerate(orders):
        script = [queries[j] for j in order]
        tally = {}
        for t in range(trials):
            h = create(wide, members, master_seed=77, handle_id=oi * trials + t)
            out = run_script(h, script)
            if h.destroyed:
                fired_at = order[len(out) - 1]  # position in canonical list
                key = (int(fired_at), out[-1].value)
            else:
                key = "none"
            tally[key] = tally.get(key, 0) + 1
        counts.append(tally)
    keys = sorted({k for t in counts for k in t}, key=str)
    table = np.array([[t.get(k, 0) for k in keys] for t in counts])
    _, p, _, _ = chi2_contingency(table)
    assert p > 0.001, f"order dependence detected (p={p})"


# -- flat membership and the one size read -------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_members_after_every_op_match_the_per_element_reference(data):
    members = data.draw(st.sets(st.integers(0, GRID.size - 1), min_size=1, max_size=20))
    script = data.draw(grid_scripts())
    store = _MemberStore(GRID, sorted(members))
    current = set(members)
    for op in script:
        if isinstance(op, Update):
            store.apply(op.perm)
            current = {op.perm.apply(eid) for eid in current}
        elif isinstance(op, QueryOne):
            store.take(op.x)
            current.discard(op.x)
        else:
            store.take(op.x, op.y)
            current -= {op.x, op.y}
        assert store.members() == current and len(store.ids) == len(current)


def _reference_fire(rng, pair, size, present):
    """The query law drawn as the live handle draws it, written out per case."""
    if not present:
        return QueryOutcome.BOT
    if not pair:
        return QueryOutcome.IN if rng.random() * size < 1 else QueryOutcome.BOT
    if present == 2:
        return QueryOutcome.PLUS if rng.random() * size < 2 else QueryOutcome.BOT
    u = rng.random() * 2 * size
    return QueryOutcome.PLUS if u < 1 else QueryOutcome.MINUS if u < 2 else QueryOutcome.BOT


@st.composite
def lazy_shift_scripts(draw):
    """(universe, members, ops) with one-stage updates, queries and reads interleaved."""
    universe = draw(universes())
    ids = st.integers(0, universe.size - 1)
    members = draw(st.sets(ids, min_size=1, max_size=12))
    ops = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["swap", "shift", "shift", "one", "pair", "read"]))
        if kind == "swap" and universe.size >= 2:
            pool = draw(st.permutations(list(range(universe.size))))
            k = draw(st.integers(1, min(3, universe.size // 2)))
            pairs = tuple((pool[2 * i], pool[2 * i + 1]) for i in range(k))
            ops.append(Update(PermutationSpec(universe, (SwapStage(pairs),))))
        elif kind == "shift":
            block = draw(st.sampled_from(universe.blocks))
            select = tuple(
                None
                if draw(st.booleans())
                else frozenset(draw(st.sets(st.sampled_from(_factor_values(f)))))
                for f in block.factors[:-1]
            )
            shift = CyclicShift(block.name, draw(st.integers(-7, 7)), select)
            ops.append(Update(PermutationSpec(universe, (shift,))))
        elif kind == "pair" and universe.size >= 2:
            x, y = draw(st.lists(ids, min_size=2, max_size=2, unique=True))
            ops.append(QueryPair(x, y))
        elif kind == "one":
            ops.append(QueryOne(draw(ids)))
        else:
            ops.append("read")
    return universe, members, ops


def _grid_shift(amount, verts):
    return Update(PermutationSpec(GRID, (CyclicShift("stack", amount, (verts, None)),)))


def _slot(w, label, pos):
    return GRID.encode("stack", (w, label, pos))


SCRATCH = [GRID.encode("scratch", (k,)) for k in range(10)]
# the stack block is first shifted mid-script, after a swap and a query;
# later swaps and queries address rotated lines, and reads unframe them
FIRST_SHIFT_MID_SCRIPT = (
    GRID,
    {_slot(1, "H", 0), _slot(1, "H", 2), *SCRATCH[:3]},
    [
        Update(swap_perm(GRID, (SCRATCH[0], _slot(2, "T", 0)))),
        QueryOne(SCRATCH[5]),
        _grid_shift(2, frozenset({1, 2})),
        Update(swap_perm(GRID, (SCRATCH[1], _slot(1, "H", 0)), (SCRATCH[2], _slot(1, "H", 4)))),
        "read",
        _grid_shift(-1, None),
        QueryOne(_slot(1, "H", 3)),
        QueryPair(_slot(2, "T", 1), _slot(1, "H", 0)),
        "read",
    ],
)


@settings(max_examples=200, deadline=None)
@given(lazy_shift_scripts(), st.integers(0, 3))
@example(FIRST_SHIFT_MID_SCRIPT, 0)
def test_lazy_shifts_match_the_value_space_reference(case, hid):
    universe, members, ops = case
    h = create(universe, sorted(members), master_seed=5, handle_id=hid)
    rng = np.random.default_rng(np.random.SeedSequence([5, hid]))
    current = set(members)
    for op in ops:
        if op == "read":
            assert h.debug_members() == current and h.size == len(current)
        elif isinstance(op, Update):
            h.update(op.perm)
            current = permute_set(op.perm, current)
        else:
            pair = isinstance(op, QueryPair)
            ends = {op.x, op.y} if pair else {op.x}
            want = _reference_fire(rng, pair, len(current), len(ends & current))
            got = h.query_pair(op.x, op.y) if pair else h.query_one(op.x)
            assert got is want
            if got.fires():
                return
            current -= ends
    assert h.debug_members() == current


def _stores_of(monkeypatch, module):
    """Record the store of every handle ``module`` creates."""
    stores = []

    def recording_create(*args, **kwargs):
        handle = create(*args, **kwargs)
        stores.append(handle._store)
        return handle

    monkeypatch.setattr(module, "create", recording_create)
    return stores


def test_no_estimator_live_run_store_holds_a_rotation(monkeypatch):
    # bhm and triangle never shift; heavy and snapshot runs apply their
    # instance's ops with every shift folded into the ids (permutation.Frame),
    # so no live run's store ever makes a frame of its own
    stores = {name: _stores_of(monkeypatch, module) for name, module in (
        ("bhm", bhm), ("triangle", triangle), ("heavy", heavy_edges), ("snapshot", pseudosnapshot)
    )}
    inst = bhm.generate_instance(16, Fraction(1, 4), 1, seed=3)
    graph = triangle.EdgeStream(8, tuple((u, v) for u in range(1, 8) for v in range(u + 1, 9)))
    stream = heavy_edges.DirectedEdgeStream(6, ((1, 2), (2, 3), (3, 1), (1, 3), (4, 1), (1, 5)))
    rng = np.random.default_rng(2)
    pool = [(u, v) for u in range(1, 13) for v in range(1, 13) if u != v]
    snap = heavy_edges.DirectedEdgeStream(
        12, tuple(pool[i] for i in rng.choice(len(pool), size=30, replace=False))
    )
    grid = pseudosnapshot.DegreeGrid.from_eps(12, "1/2")
    hashes = pseudosnapshot.HashOracles(7, 2, "1/2")
    params = pseudosnapshot.SnapshotParams(2, "1/2", ("-1", "0"), (3, 1))
    plan = pseudosnapshot.build_plan(snap, hashes, grid, params)
    edges_run = []
    for hid in range(20):
        bhm.run_single(inst, master_seed=7, handle_id=hid)
        triangle.run_single(graph, 2, 7, handle_id=hid)
        heavy_edges.run_single(stream, 2, 2, 7, handle_id=hid)
        edges = []
        pseudosnapshot.run_single(
            snap, hashes, grid, params, 7, handle_id=hid, plan=plan,
            observer=lambda k, mem: edges.append(k),
        )
        edges_run.append(len(edges))
    assert max(edges_run) > 1  # some snapshot runs pass several shifted edges
    for name, recorded in stores.items():
        assert len(recorded) == 20, name
        assert all(s.frame is None for s in recorded), name


BAD_ENDPOINTS = [True, False, -1, LINE.size, np.int64(3), 2.0]


@pytest.mark.parametrize("bad", BAD_ENDPOINTS, ids=repr)
def test_bad_query_endpoints_raise_the_same_error_everywhere(bad):
    want = f"query endpoint {bad!r} outside universe"
    scripts = ([QueryOne(bad)], [QueryPair(bad, 1)], [QueryPair(1, bad)])
    for script in scripts:
        with pytest.raises(InvalidQueryError) as live:
            run_script(fresh([0, 1, 2]), script)
        with pytest.raises(InvalidQueryError) as replay:
            replay_noiseless(LINE, [0, 1, 2], script)
        with pytest.raises(InvalidQueryError) as quantum:
            enumerate_distribution(LINE, [0, 1, 2], script, "quantum")
        assert str(live.value) == str(replay.value) == str(quantum.value) == want


def test_swap_compile_names_the_id_outside_the_universe():
    for pair, bad in (((0, LINE.size), LINE.size), ((-1, 0), -1), ((3, 99), 99)):
        with pytest.raises(PermutationError, match=f"^id {bad} outside universe of size 16$"):
            swap_perm(LINE, pair)


# -- seeds and the draw stream -----------------------------------------------


@pytest.mark.parametrize("bad", [True, False, 1.5, "3", None, -1, np.bool_(True)], ids=repr)
def test_create_rejects_a_seed_or_handle_id_that_is_not_a_nonnegative_integer(bad):
    for key in ("master_seed", "handle_id"):
        with pytest.raises(InvalidInitError, match=f"^{key} must be a nonnegative integer"):
            create(LINE, [0, 1], **{key: bad})


def test_create_takes_index_integers_as_seeds():
    script = [QueryOne(x) for x in range(16)]
    a = create(LINE, range(16), master_seed=np.int64(7), handle_id=np.uint8(3))
    b = create(LINE, range(16), master_seed=7, handle_id=3)
    assert run_script(a, script) == run_script(b, script)


WIDE = UniverseSpec((Block("g", (IntRange(0, 63), IntRange(0, 63))),))  # 64 lines of 64


@pytest.mark.parametrize("shifted", [False, True], ids=["frameless", "shifted"])
def test_draw_order_holds_across_block_refills(shifted):
    # hundreds of present queries cross several block refills; every outcome
    # must equal one rng.random() per draw, and the members the value-space
    # reference; swaps move members both ways, and "shifted" rotates lines
    script_rng = np.random.default_rng(11)
    members = set(int(x) for x in script_rng.choice(WIDE.size, size=3000, replace=False))
    reached = []
    for hid in range(6):
        h = create(WIDE, sorted(members), master_seed=21, handle_id=hid)
        rng = np.random.default_rng(np.random.SeedSequence([21, hid]))
        current, present_queries, fired = set(members), 0, False
        if shifted:
            first = PermutationSpec(WIDE, (CyclicShift("g", 5, (None,)),))
            h.update(first)
            current = permute_set(first, current)
            assert h._store.frame is not None
        for step in range(400):
            kind = step % 8
            if kind == 0:
                # a member to a free id, a free id to a member, two members, two free ids
                inside = sorted(current)
                outside = sorted(set(range(WIDE.size)) - current)
                a, b, e, g = (inside[i] for i in script_rng.choice(len(inside), 4, replace=False))
                c, d, f, k = (outside[i] for i in script_rng.choice(len(outside), 4, replace=False))
                perm = PermutationSpec(WIDE, (SwapStage(((a, c), (d, b), (e, g), (f, k))),))
            elif step % 16 == 4 and shifted:
                rows = frozenset(int(r) for r in script_rng.choice(64, size=20, replace=False))
                amount = int(script_rng.integers(-40, 40))
                perm = PermutationSpec(WIDE, (CyclicShift("g", amount, (rows,)),))
            else:
                perm = None
            if perm is not None:
                h.update(perm)
                current = permute_set(perm, current)
                continue
            inside = sorted(current)
            x = inside[int(script_rng.integers(len(inside)))]
            y = int(script_rng.integers(WIDE.size))
            pair = kind % 2 == 1 and y != x
            ends = {x, y} if pair else {x}
            want = _reference_fire(rng, pair, len(current), len(ends & current))
            got = h.query_pair(x, y) if pair else h.query_one(x)
            assert got is want, (hid, step)
            present_queries += 1
            if got.fires():
                fired = True
                break
            current -= ends
            if step % 50 == 0:
                assert h.debug_members() == current
        if not fired:
            assert h.debug_members() == current and h.size == len(current)
        reached.append(present_queries)
    assert sum(n >= 200 for n in reached) >= 3, reached


def _exact_fire(pair, size, present, u):
    """The outcome ``FIRE_LAW`` assigns a draw u, in exact rationals."""
    scale, atoms = FIRE_LAW[pair, present]
    acc = 0
    for outcome, weight in atoms:
        acc += weight
        if Fraction(u) * scale * size < acc:
            return outcome
    return QueryOutcome.BOT


def test_fire_differs_from_the_exact_rule_at_most_one_double_per_boundary():
    # _fire compares the float u * scale * size with each cumulative weight.
    # At each boundary acc / (scale * size) below 1, the nearest double and two
    # doubles on either side must follow the exact rule, except at most the
    # one double just below the boundary, which rounding can push up across
    # it (size 3, u = 0.3333333333333333 is Bot, where the exact rule fires)
    def fire(pair, size, present, u):
        handle = create(LINE, [0])
        handle._draws = [u]
        return handle._fire(pair, size, present)

    def group_fire(pair, size, present, u):
        # the same draw through a one-query group on ``size`` members, of which
        # the query's ``present`` endpoints are members
        handle = create(WIDE, range(size))
        handle._draws = [u]
        ys = ([1] if present == 2 else [size]) if pair else None
        hit = handle.query_group(QueryGroup(WIDE, [0], ys))
        return QueryOutcome.BOT if hit is None else hit[1]

    flipped = 0
    for (pair, present), (scale, atoms) in FIRE_LAW.items():
        cums = np.cumsum([weight for _, weight in atoms])
        for size in range(max(present, 1), 65):
            for acc in cums:
                bound = Fraction(int(acc), scale * size)
                if bound >= 1:
                    continue
                near = float(bound)
                draws = {near}
                for toward in (0.0, 1.0):
                    u = near
                    for _ in range(2):
                        u = float(np.nextafter(u, toward))
                        draws.add(u)
                off = []
                for u in sorted(draws):
                    got, want = fire(pair, size, present, u), _exact_fire(pair, size, present, u)
                    assert group_fire(pair, size, present, u) is got, (pair, present, size, u)
                    if got is not want:
                        off.append(u)
                        # only upward: the float rule names a later atom, or Bot
                        order = [o for o, _ in atoms] + [QueryOutcome.BOT]
                        assert order.index(got) > order.index(want)
                assert len(off) <= 1, (pair, present, size, acc)
                if off:
                    assert Fraction(off[0]) < bound
                    assert float(np.nextafter(off[0], 1.0)) >= bound
                    flipped += 1
    assert fire(False, 3, 1, 0.3333333333333333) is QueryOutcome.BOT
    assert _exact_fire(False, 3, 1, 0.3333333333333333) is QueryOutcome.IN
    assert flipped == 156


# -- query groups ----------------------------------------------------------------


@st.composite
def grouped_runs(draw):
    """(universe, members, first update or None, groups): a random universe, a
    member set, an optional first shift of every line of one block (so the
    store keeps a frame), and groups of pairwise-distinct ids, single or pair."""
    universe = draw(universes().filter(lambda u: u.size >= 2))
    ids = st.integers(0, universe.size - 1)
    members = draw(st.sets(ids, min_size=1, max_size=min(universe.size, 16)))
    first = None
    if draw(st.booleans()):
        block = draw(st.sampled_from(universe.blocks))
        select = (None,) * (len(block.factors) - 1)  # every line of the block
        shift = CyclicShift(block.name, draw(st.integers(-5, 5)), select)
        first = PermutationSpec(universe, (shift,))
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.permutations(range(universe.size)))
        pair = draw(st.booleans())
        count = draw(st.integers(1, max(1, universe.size // 2 if pair else universe.size)))
        if pair:
            groups.append(QueryGroup(universe, pool[:count], pool[count : 2 * count]))
        else:
            groups.append(QueryGroup(universe, pool[:count]))
    return universe, sorted(members), first, groups


@settings(max_examples=200, deadline=None)
@given(grouped_runs(), st.integers(0, 3), st.integers(0, 5))
def test_a_group_runs_exactly_its_queries_one_by_one(case, seed, hid):
    universe, members, first, groups = case
    grouped = create(universe, members, master_seed=seed, handle_id=hid)
    single = create(universe, members, master_seed=seed, handle_id=hid)
    if first is not None:
        grouped.update(first)
        single.update(first)
        assert grouped._store.frame is not None
    for group in groups:
        hit = grouped.query_group(group)
        want = None
        for i, op in enumerate(group.ops()):
            out = single.query_pair(op.x, op.y) if group.ys else single.query_one(op.x)
            if out.fires():
                want = (i, out)
                break
        assert hit == want
        if hit is not None:
            assert grouped.final_outcome is single.final_outcome is hit[1]
            return
        assert grouped.debug_members() == single.debug_members()
    # the same later draws: every member queried in turn, on both handles
    for x in range(universe.size):
        out = grouped.query_one(x)
        assert out is single.query_one(x)
        if out.fires():
            break
    else:
        assert grouped.debug_members() == single.debug_members() == set()


def test_a_group_fires_at_its_first_firing_query():
    # on {0, 1}, a both-present pair is certain to fire Plus at size 2
    h = fresh([0, 1, 2, 3])
    hit = h.query_group(QueryGroup(LINE, [5, 2, 0], [6, 3, 1]))
    assert hit is not None and hit[0] in (1, 2) and h.destroyed
    h = fresh([0, 1])
    assert h.query_group(QueryGroup(LINE, [5, 0], [6, 1])) == (1, QueryOutcome.PLUS)
    h = fresh([0, 1])
    assert h.query_group(QueryGroup(LINE, [4, 5, 6])) is None
    assert h.debug_members() == {0, 1}


@pytest.mark.parametrize("bad", BAD_ENDPOINTS, ids=repr)
def test_a_group_rejects_the_endpoints_a_query_rejects(bad):
    want = f"^query endpoint {re.escape(repr(bad))} outside universe$"
    for xs, ys in (([0, bad], None), ([0, 1], [2, bad]), ([bad], [1])):
        with pytest.raises(InvalidQueryError, match=want):
            QueryGroup(LINE, xs, ys)


def test_a_group_rejects_repeated_endpoints_and_unequal_halves():
    with pytest.raises(InvalidQueryError, match="^pair query endpoints must differ, got 3 twice$"):
        QueryGroup(LINE, [1, 3], [2, 3])
    for xs, ys, eid in (([1, 2, 1], None, 1), ([1, 2], [3, 1], 1), ([1, 2], [2, 4], 2)):
        with pytest.raises(InvalidQueryError, match=f"^query group repeats endpoint {eid}$"):
            QueryGroup(LINE, xs, ys)
    with pytest.raises(InvalidQueryError, match="^a pair group has 2 xs but 1 ys$"):
        QueryGroup(LINE, [1, 2], [3])
    assert QueryGroup(LINE, []).ops() == QueryGroup(LINE, [], []).ops() == ()


def test_a_group_on_a_destroyed_handle_or_a_foreign_universe_raises():
    h = fresh([0])
    assert h.query_one(0) is QueryOutcome.IN
    with pytest.raises(SketchDestroyedError):
        h.query_group(QueryGroup(LINE, [1]))
    other = UniverseSpec((Block("v", (IntRange(0, 7),)),))
    with pytest.raises(ScriptError):
        fresh([0, 1]).query_group(QueryGroup(other, [1]))
    twin = UniverseSpec((Block("v", (IntRange(0, 15),)),))  # equal, not the same object
    assert fresh([0, 1]).query_group(QueryGroup(twin, [5])) is None


# -- swap stages -------------------------------------------------------------------


@pytest.mark.parametrize("pair", [(2.9, 5), (True, 3), (3, False), ("2", 3), (2, None)], ids=repr)
def test_swap_ids_must_be_integers(pair):
    # int() would swap 2 and 5 for (2.9, 5), and 1 and 3 for (True, 3)
    with pytest.raises(PermutationError, match="^swap id .* is not an integer$"):
        swap_perm(LINE, pair)


def test_swap_ids_take_index_integers():
    perm = swap_perm(LINE, (np.int64(2), np.uint8(5)))
    assert perm.stages[0].pairs == ((2, 5),)
    assert all(type(eid) is int for eid in perm.stages[0].pairs[0])
    assert perm == swap_perm(LINE, (2, 5))


def test_consecutive_swap_stages_merge_into_one_segment():
    shift = CyclicShift("v", 3)
    perm = PermutationSpec(
        LINE, (SwapStage(((0, 1),)), SwapStage(((1, 2), (5, 6))), shift, SwapStage(((3, 4),)))
    )
    assert [pairs for pairs, _ in perm._segments] == [((0, 1), (1, 2), (5, 6)), ((3, 4),)]
    assert [comp is None for _, comp in perm._segments] == [False, True]
    h = fresh([0, 3, 5])
    h.update(perm)
    assert h.debug_members() == permute_set(perm, {0, 3, 5}) == {5, 6, 9}
