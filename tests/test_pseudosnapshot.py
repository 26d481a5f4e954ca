"""Degree-class snapshot estimator: oracles, mechanics, and the exact law."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsketch import (
    CapacityError,
    InvalidParamsError,
    InvalidQueryError,
    enumerate_distribution,
)
from pairsketch.heavy_edges import DirectedEdgeStream
from pairsketch.pseudosnapshot import (
    DegreeGrid,
    EdgeLocalStats,
    HashOracles,
    ScriptPlan,
    SnapshotParams,
    _Arrivals,
    _Plan,
    build_plan,
    estimate,
    estimate_sampled,
    lemma_expectation,
    pseudobias_exact,
    pseudosnapshot_exact,
    run_single,
    terminal_law,
)
from snapshot_reference import SnapshotRun, StackMirror, edge_queries, frame_by_plan, inc_update


def random_directed(n: int, m: int, seed: int) -> DirectedEdgeStream:
    rng = np.random.default_rng(seed)
    pairs: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u, v = rng.integers(1, n + 1, size=2)
        if u != v and (u, v) not in pairs:
            pairs.add((u, v))
            edges.append((int(u), int(v)))
    return DirectedEdgeStream(n, tuple(edges))


# The module-wide fixture: hash seed 7, kappa 2, eps 1/2, two bias classes,
# head degrees in [4, 5), tail degrees in [2, 3).
FIX_STREAM = random_directed(12, 30, 30)
FIX_GRID = DegreeGrid.from_eps(12, "0.5")
FIX_HASHES = HashOracles(seed=7, kappa=2, eps="0.5")
FIX_PARAMS = SnapshotParams(
    kappa=2,
    eps="0.5",
    thresholds=("-1", "0"),
    class_pair=(FIX_GRID.levels.index(4), FIX_GRID.levels.index(2)),
)


@pytest.fixture(scope="module")
def fix_plan():
    return build_plan(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)


@pytest.fixture(scope="module")
def fix_law(fix_plan):
    return terminal_law(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, plan=fix_plan)


# -- grid ------------------------------------------------------------------


def test_grid_matches_integer_power_floors():
    grid = DegreeGrid.from_eps(12, "0.5")
    # (1 + eps^3) = 9/8; recompute the floors with raw integer arithmetic
    raw = []
    i = 0
    while 9**i < 12 * 8**i:
        raw.append(9**i // 8**i)
        i += 1
    raw.append(12)
    dedup = []
    for d in raw:
        if not dedup or d > dedup[-1]:
            dedup.append(d)
    assert grid.levels == tuple(dedup)
    assert grid.levels == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def _stepped_levels(n, eps):
    """The grid by stepping through the powers of 1 + eps^3 one at a time."""
    floors, power = [], Fraction(1)
    while power < n:
        floors.append(math.floor(power))
        power *= 1 + eps**3
    return tuple(sorted(set(floors + [n])))


@pytest.mark.parametrize("eps", ["1", "1/2", "2/5", "1/3", "1/4", "1/5"])
def test_grid_equals_the_stepped_powers(eps):
    # n * eps^3 <= 1 lists every degree; larger n steps
    for n in range(1, 31):
        assert DegreeGrid.from_eps(n, eps).levels == _stepped_levels(n, Fraction(eps)), n


@pytest.mark.parametrize("eps", ["1", "1/2", "2/5", "3/7", "0.35", "1/3", "1/4", "1/5", "1/6"])
def test_grid_past_the_shortcut_equals_the_stepped_powers(eps):
    # n * eps^3 > 1: a listed range while the steps stay below one, then
    # floors from logarithms, each checked against the exact walk
    for n in (31, 64, 100, 257, 500, 1000):
        assert DegreeGrid.from_eps(n, eps).levels == _stepped_levels(n, Fraction(eps)), n


def test_grid_settles_exact_integer_powers():
    # at eps = 1 every power of 1 + eps^3 is an integer, where a float
    # estimate of the floor cannot decide on its own
    assert DegreeGrid.from_eps(2**40 + 1, 1).levels == (*(2**k for k in range(41)), 2**40 + 1)
    assert DegreeGrid.from_eps(2**40, 1).levels == tuple(2**k for k in range(41))


def test_grid_just_past_the_shortcut_is_fast():
    start = time.perf_counter()
    grid = DegreeGrid.from_eps(10**4, "1/20")
    assert time.perf_counter() - start < 2
    assert grid.levels[0] == 1 and grid.levels[-1] == 10**4
    # every degree up to 8000 = 1 / eps^3, where the steps reach one
    assert grid.levels[:8000] == tuple(range(1, 8001))


def test_grid_for_tiny_eps_lists_every_degree_without_stepping():
    start = time.perf_counter()
    grid = DegreeGrid.from_eps(1000, "1/50")
    assert time.perf_counter() - start < 0.1
    assert grid.levels == tuple(range(1, 1001))


def test_grid_lists_every_degree_while_the_steps_stay_below_one():
    # n * eps^3 <= 1: every step of the powers of 1 + eps^3 below n is below
    # one, so the floors take every value in 1..n. Over eps = a/b, b <= 40,
    # at the small n, the middle and the top two n of that range.
    for eps in sorted({Fraction(a, b) for b in range(1, 41) for a in range(1, b + 1)}):
        top = math.floor(1 / eps**3)
        for n in {*range(1, min(top, 30) + 1), top // 2, top - 1, top} - {0}:
            assert DegreeGrid.from_eps(n, eps).levels == tuple(range(1, n + 1)), (eps, n)


@given(n=st.integers(2, 60), eps_num=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_grid_properties(n, eps_num):
    grid = DegreeGrid.from_eps(n, Fraction(eps_num, 4))
    assert grid.levels[0] == 1
    assert grid.levels[-1] == n
    assert all(b > a for a, b in zip(grid.levels, grid.levels[1:]))
    for d in range(1, n + 1):
        i = grid.index_for_degree(d)
        assert grid.levels[i] <= d
        if i + 1 < len(grid.levels):
            assert d < grid.levels[i + 1]


@pytest.mark.parametrize("eps", ["0", "-1/2"])
def test_nonpositive_eps_exits_2_instead_of_looping(eps, tmp_path):
    # a grid step 1 + eps^3 <= 1 never climbs to n, so a missing check hangs;
    # the subprocess timeout turns that hang into a failure
    path = tmp_path / "d.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, "-m", "pairsketch.cli", "snapshot", "--stream", str(path), "--kappa", "1",
        f"--eps={eps}", "--thresholds=-1", "--alpha", "0", "--beta", "0",
    ]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 2
    assert "error: eps must be in (0, 1]" in done.stderr


# -- hash oracles ----------------------------------------------------------


def test_hashes_deterministic_and_ranged():
    h = HashOracles(seed=7, kappa=2, eps="0.5")
    assert [h.f(3, k) for k in range(1, 50)] == [h.f(3, k) for k in range(1, 50)]
    assert h.g(5) == h.g(5)
    for v in range(1, 30):
        assert abs(h.g(v)) <= Fraction(1, 2)
        # 32 fractional bits on top of eps = 1/2
        assert (h.g(v) * 2**32).denominator == 1
    # kappa/(2d) >= 1 means the subsampler always fires
    assert all(h.f(1, k) for k in range(1, 200))


def test_hash_fire_rate_matches_probability():
    h = HashOracles(seed=11, kappa=2, eps="0.5")
    n_draws = 4000
    hits = sum(h.f(4, k) for k in range(1, n_draws + 1))
    p = 2 / 8
    sigma = (n_draws * p * (1 - p)) ** 0.5
    assert abs(hits - n_draws * p) <= 4 * sigma


def test_distinct_seeds_decouple():
    a = HashOracles(seed=1, kappa=2, eps="0.5")
    b = HashOracles(seed=2, kappa=2, eps="0.5")
    draws_a = [a.f(4, k) for k in range(1, 200)]
    draws_b = [b.f(4, k) for k in range(1, 200)]
    assert draws_a != draws_b
    assert a.g(1) != b.g(1)


# -- params ----------------------------------------------------------------


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        SnapshotParams(kappa=0, eps="0.5", thresholds=("-1",), class_pair=(0, 0))
    with pytest.raises(InvalidParamsError):
        SnapshotParams(kappa=1, eps="0.5", thresholds=(), class_pair=(0, 0))
    with pytest.raises(InvalidParamsError):
        SnapshotParams(kappa=1, eps="0.5", thresholds=("0", "0"), class_pair=(0, 0))
    with pytest.raises(InvalidParamsError):
        SnapshotParams(kappa=1, eps="0.5", thresholds=("-2", "0"), class_pair=(0, 0))
    bad_class = SnapshotParams(kappa=2, eps="0.5", thresholds=("-1",), class_pair=(0, 99))
    with pytest.raises(InvalidParamsError):
        bad_class.validate_with(FIX_GRID, FIX_HASHES)
    wrong_kappa = SnapshotParams(kappa=3, eps="0.5", thresholds=("-1",), class_pair=(0, 1))
    with pytest.raises(InvalidParamsError):
        wrong_kappa.validate_with(FIX_GRID, FIX_HASHES)


def test_bin_of_half_open_classes():
    p = SnapshotParams(kappa=1, eps="0.5", thresholds=("-1", "0", "0.5"), class_pair=(0, 1))
    assert p.bin_of(Fraction(-2)) is None
    assert p.bin_of(Fraction(-1)) == 0
    assert p.bin_of(Fraction(-1, 100)) == 0
    assert p.bin_of(Fraction(0)) == 1
    assert p.bin_of(Fraction(49, 100)) == 1
    assert p.bin_of(Fraction(1, 2)) == 2
    assert p.bin_of(Fraction(1)) == 2


# -- pseudobias oracle -----------------------------------------------------


def test_pseudobias_rejects_non_endpoint():
    with pytest.raises(InvalidQueryError):
        pseudobias_exact(FIX_STREAM, FIX_HASHES, FIX_GRID, 1, 12)
    with pytest.raises(InvalidQueryError):
        pseudobias_exact(FIX_STREAM, FIX_HASHES, FIX_GRID, 0, 2)


def _stats_by_scan(stream, hashes, grid, edge_index, vertex):
    """Per-call scans of the whole stream: the reference for the arrival table."""
    d_before = dout_before = d_after = dout_after = sampled = 0
    for k, (x, y) in enumerate(stream.edges, start=1):
        if vertex not in (x, y):
            continue
        if k <= edge_index:
            d_before += 1
            dout_before += x == vertex
        else:
            d_after += 1
            dout_after += x == vertex
    i_tilde = grid.index_for_degree(d_before)
    d_rounded = grid.levels[i_tilde]
    for k, (x, y) in enumerate(stream.edges, start=1):
        if k <= edge_index and x == vertex and hashes.f(d_rounded, k):
            sampled += 1
    dout_sampled = Fraction(2 * d_rounded * sampled, hashes.kappa)
    raw = 2 * (dout_sampled + dout_after) / (d_rounded + d_after) - 1 + hashes.g(vertex)
    d_total = d_before + d_after
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
        pseudobias=min(raw, Fraction(1)),
        bias=Fraction(2 * (dout_before + dout_after) - d_total, d_total),
    )


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 9),
    m=st.integers(1, 30),
    hseed=st.integers(0, 50),
    kappa=st.integers(1, 3),
    eps=st.sampled_from(["1/4", "1/2", "1"]),
)
@settings(max_examples=40, deadline=None)
def test_pseudobias_equals_per_call_scan(seed, n, m, hseed, kappa, eps):
    stream = random_directed(n, min(m, n * (n - 1)), seed)
    grid = DegreeGrid.from_eps(n, eps)
    hashes = HashOracles(seed=hseed, kappa=kappa, eps=eps)
    for k, (u, v) in enumerate(stream.edges, start=1):
        for w in (u, v):
            got = pseudobias_exact(stream, hashes, grid, k, w)
            assert got == _stats_by_scan(stream, hashes, grid, k, w)


def test_pseudobias_hand_example():
    """Vertex 1 at edge 1 of 1->2, 1->3, 2->1 with an always-firing sampler."""
    stream = DirectedEdgeStream(3, ((1, 2), (1, 3), (2, 1)))
    grid = DegreeGrid.from_eps(3, "0.5")
    h = HashOracles(seed=7, kappa=2, eps="0.5")
    s = pseudobias_exact(stream, h, grid, 1, 1)
    assert (s.d_before, s.dout_before, s.d_after, s.dout_after) == (1, 1, 2, 1)
    assert s.d_rounded == 1
    # kappa/(2*1) = 1, so the single before-edge is sampled for sure and
    # dout_sampled = 2*d*count/kappa = 1
    assert s.dout_sampled == 1
    assert s.pseudobias == min(Fraction(2 * (1 + 1), 1 + 2) - 1 + h.g(1), Fraction(1))
    assert s.bias == Fraction(2 * 2 - 3, 3)


def test_pseudobias_caps_at_one():
    stream = DirectedEdgeStream(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
    grid = DegreeGrid.from_eps(5, "0.5")
    h = HashOracles(seed=7, kappa=2, eps="0.5")
    s = pseudobias_exact(stream, h, grid, 1, 1)
    # raw value 2*(1+3)/(1+3) - 1 + g = 1 + g, so the cap binds iff g >= 0
    assert s.pseudobias == min(1 + h.g(1), Fraction(1))
    assert s.pseudobias <= 1


def test_pseudobias_sink_vertex_floors_near_minus_one():
    stream = DirectedEdgeStream(4, ((1, 2), (3, 2), (4, 2)))
    grid = DegreeGrid.from_eps(4, "0.5")
    h = HashOracles(seed=7, kappa=2, eps="0.5")
    s = pseudobias_exact(stream, h, grid, 3, 2)
    assert s.dout_before == 0 and s.dout_after == 0
    assert s.pseudobias == -1 + h.g(2)


# -- exact snapshot --------------------------------------------------------


def _snapshot_by_hand(stream, hashes, grid, params, restricted):
    """Second, independent evaluation of the snapshot definition."""
    ell = len(params.thresholds)
    out = [[0] * ell for _ in range(ell)]
    d_a = grid.levels[params.class_pair[0]]
    d_a1 = grid.levels[params.class_pair[0] + 1]
    d_b = grid.levels[params.class_pair[1]]
    d_b1 = grid.levels[params.class_pair[1] + 1]

    def stats(k, w):
        before = [e for e in range(1, k + 1) if w in stream.edges[e - 1]]
        after = [e for e in range(k + 1, stream.m + 1) if w in stream.edges[e - 1]]
        deg = len(before)
        level = max(i for i, d in enumerate(grid.levels) if d <= deg)
        dr = grid.levels[level]
        cnt = sum(
            1 for e in before if stream.edges[e - 1][0] == w and hashes.f(dr, e)
        )
        dout_after = sum(1 for e in after if stream.edges[e - 1][0] == w)
        raw = (
            2 * (Fraction(2 * dr * cnt, hashes.kappa) + dout_after)
            / (dr + len(after))
            - 1
            + hashes.g(w)
        )
        return deg, min(raw, Fraction(1))

    def bin_of(x):
        if x < params.thresholds[0]:
            return None
        hits = [i for i, t in enumerate(params.thresholds) if t <= x]
        return hits[-1]

    for k, (u, v) in enumerate(stream.edges, start=1):
        deg_u, bu = stats(k, u)
        deg_v, bv = stats(k, v)
        if restricted and not (d_a <= deg_u < d_a1 and d_b <= deg_v < d_b1):
            continue
        iu, iv = bin_of(bu), bin_of(bv)
        if iu is not None and iv is not None:
            out[iu][iv] += 1
    return out


@pytest.mark.parametrize("restricted", [False, True])
def test_snapshot_double_entry(restricted):
    ours = pseudosnapshot_exact(
        FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, restricted=restricted
    )
    theirs = _snapshot_by_hand(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, restricted)
    assert ours == theirs
    if restricted:
        assert ours == [[0, 1], [2, 0]]
    else:
        assert ours == [[4, 6], [8, 6]]
    # the law-versus-lemma tests share the arrival table and the pseudobias
    # formula with this oracle, so the scan by hand is their independent check
    rng = np.random.default_rng(17)
    thresholds = [("-1",), ("-1", "0"), ("-1/2", "0", "1/2")]
    for trial in range(40):
        n, m, kappa = int(rng.integers(3, 11)), int(rng.integers(1, 41)), int(rng.integers(1, 3))
        stream = random_directed(n, min(m, n * (n - 1)), trial)
        grid = DegreeGrid.from_eps(n, "1/2")
        hashes = HashOracles(seed=trial, kappa=kappa, eps="1/2")
        top = len(grid.levels) - 1
        params = SnapshotParams(
            kappa=kappa,
            eps="1/2",
            thresholds=thresholds[trial % 3],
            class_pair=(int(rng.integers(top)), int(rng.integers(top))),
        )
        ours = pseudosnapshot_exact(stream, hashes, grid, params, restricted=restricted)
        assert ours == _snapshot_by_hand(stream, hashes, grid, params, restricted)


def test_snapshot_single_edge_and_empty():
    grid = DegreeGrid.from_eps(2, "0.5")
    params = SnapshotParams(kappa=1, eps="0.5", thresholds=("-1",), class_pair=(0, 0))
    stream = DirectedEdgeStream(2, ((1, 2),))
    # seed 0: both endpoint noises are nonnegative, so the lone class
    # [-1, 1] catches both pseudobiases
    h_in = HashOracles(seed=0, kappa=1, eps="0.5")
    assert h_in.g(2) >= 0 and (h_in.f(1, 1) or h_in.g(1) >= 0)
    assert pseudosnapshot_exact(stream, h_in, grid, params) == [[1]]
    # seed 3: the tail's noise is negative, its pseudobias -1+g falls below
    # every class and the edge counts nowhere
    h_out = HashOracles(seed=3, kappa=1, eps="0.5")
    assert h_out.g(2) < 0 and not h_out.f(1, 1)
    assert pseudosnapshot_exact(stream, h_out, grid, params) == [[0]]
    empty = DirectedEdgeStream(2, ())
    assert pseudosnapshot_exact(empty, h_in, grid, params) == [[0]]


# -- sketch-side mechanics -------------------------------------------------

MINI_STREAM = DirectedEdgeStream(3, ((1, 2), (2, 3)))
MINI_GRID = DegreeGrid.from_eps(3, "0.5")
MINI_HASHES = HashOracles(seed=3, kappa=1, eps="0.5")
MINI_PARAMS = SnapshotParams(kappa=1, eps="0.5", thresholds=("-1",), class_pair=(0, 1))


def _mini_run(seed=0):
    return SnapshotRun(MINI_STREAM, MINI_HASHES, MINI_GRID, MINI_PARAMS, seed)


def test_inc_grows_stack_and_cursor():
    run = _mini_run()
    copies = 2 * MINI_PARAMS.kappa**2
    plan = run.plan
    assert plan.cursor == 0
    run.inc("A", 1, 1)
    members = run.handle.debug_members()
    stack = {plan.slot(1, "A", c, 1, False) for c in range(1, copies + 1)}
    assert stack <= members
    assert plan.cursor == copies
    run.inc("A", 1, 1)
    run.inc("A", 1, 3)
    members = run.handle.debug_members()
    expect = {
        plan.slot(1, "A", c, p, False)
        for c in range(1, copies + 1)
        for p in (1, 2, 3, 4, 5)
    }
    assert expect <= members
    assert plan.cursor == copies * 5
    # every consumed scratch element is gone, the rest are still in
    assert not members & set(range(copies * 5))
    assert set(range(copies * 5, plan.big_m)) <= members
    assert run.handle.size == plan.big_m


def test_inc_scratch_exhaustion_raises():
    params = SnapshotParams(
        kappa=1, eps="0.5", thresholds=("-1",), class_pair=(0, 1), capacity_c=1
    )
    run = SnapshotRun(MINI_STREAM, MINI_HASHES, MINI_GRID, params, 0)
    assert run.plan.big_m == 2
    run.inc("A", 1, 1)
    with pytest.raises(CapacityError):
        run.inc("B", 1, 1)


def test_query_edge_on_empty_stacks_is_silent():
    run = _mini_run()
    before = run.handle.debug_members()
    assert run.query_edge(1, 2) is None
    assert run.handle.debug_members() == before
    assert run.handle.size == run.plan.big_m


def test_query_edge_pairs_structurally_disjoint():
    plan = _Plan(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)
    for u, v in ((2, 3), (10, 6), (5, 2)):
        ops = edge_queries(plan, u, v)
        assert len(ops) == 4 * FIX_PARAMS.kappa**2
        ids = [x for op, _ in ops for x in (op.x, op.y)]
        assert len(ids) == len(set(ids)) == 8 * FIX_PARAMS.kappa**2


def test_query_edge_hit_rate_matches_quantum_backend():
    """Loaded A/C stacks: exact enumeration on both backends, Plus at 2/M."""
    plan = _Plan(MINI_STREAM, MINI_HASHES, MINI_GRID, MINI_PARAMS)
    script = [inc_update(plan, "A", 1, 1), inc_update(plan, "C", 2, 2)]
    script += [op for op, _ in edge_queries(plan, 1, 2)]
    ds = enumerate_distribution(
        plan.universe, range(plan.big_m), tuple(script), backend="stochastic"
    )
    dq = enumerate_distribution(
        plan.universe, range(plan.big_m), tuple(script), backend="quantum"
    )
    keys = set(ds.entries) | set(dq.entries)
    tv = 0.5 * sum(abs(ds.entries.get(k, 0.0) - dq.entries.get(k, 0.0)) for k in keys)
    assert tv <= 1e-9
    plus_first = sum(p for seq, p in ds.entries.items() if seq and seq[0] == "Plus")
    assert plus_first == pytest.approx(2 / plan.big_m, abs=1e-12)


# -- run_single ------------------------------------------------------------


def test_run_single_deterministic_and_bounded(fix_plan, fix_law):
    a = run_single(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, 5, plan=fix_plan)
    b = run_single(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, 5, plan=fix_plan)
    assert a == b
    half = fix_plan.big_m // 2
    for seed in range(25):
        est = run_single(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, seed, plan=fix_plan)
        assert est.terminated_by in {"Plus", "Minus", "Cleanup", "StreamEnd"}
        flat = [v for row in est.entries for v in row]
        assert sum(1 for v in flat if v) <= 1
        assert all(v in (0, half, -half) for v in flat)
        if est.terminated_by in {"Cleanup", "StreamEnd"}:
            assert not any(flat)
        assert est.key in fix_law.atoms


def test_run_single_empty_stream():
    est = run_single(
        DirectedEdgeStream(3, ()), MINI_HASHES, MINI_GRID, MINI_PARAMS, 0
    )
    assert est.terminated_by == "StreamEnd"
    assert est.entries == ((0,),)


def test_capacity_exhaustion_flags_run_and_law():
    params = SnapshotParams(
        kappa=1, eps="0.5", thresholds=("-1",), class_pair=(0, 1), capacity_c=1
    )
    plan = build_plan(MINI_STREAM, MINI_HASHES, MINI_GRID, params)
    assert plan.capacity_edge == 1
    assert plan.edge_plans == ()
    est = run_single(MINI_STREAM, MINI_HASHES, MINI_GRID, params, 0, plan=plan)
    assert est.terminated_by == "Capacity"
    assert est.flags == ("capacity_exceeded",)
    law = terminal_law(MINI_STREAM, MINI_HASHES, MINI_GRID, params, plan=plan)
    assert law.atoms == {("Capacity", None, 0): Fraction(1)}
    assert est.key in law.atoms


def test_hash_budget_flag_path(fix_plan):
    starved = ScriptPlan(
        universe=fix_plan.universe,
        edge_plans=(),
        big_m=fix_plan.big_m,
        hash_budget_ok=False,
        capacity_edge=None,
        f_alpha=fix_plan.f_alpha,
        f_beta=fix_plan.f_beta,
        fire_key=fix_plan.fire_key,
    )
    est = run_single(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, 0, plan=starved)
    assert est.terminated_by == "HashBudget"
    assert est.flags == ("hash_budget_exceeded",)
    law = terminal_law(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, plan=starved)
    assert law.atoms == {("HashBudget", None, 0): Fraction(1)}
    assert est.key in law.atoms
    # with kappa >= 1 the realized budget can never actually blow: each edge
    # contributes at most two fires against an allowance of 2*kappa per edge
    assert fix_plan.hash_budget_ok
    assert sum(fix_plan.f_alpha) + sum(fix_plan.f_beta) <= 2 * FIX_PARAMS.kappa * FIX_STREAM.m


def test_a_plan_builds_its_fire_keys_and_arrival_table_once(monkeypatch):
    # the key map reads an O(m) arrival table; however many runs fire, the
    # plan builds both once and its runs and law share them
    from pairsketch import pseudosnapshot

    made = {"keys": 0, "arrivals": 0}
    fire_key, arrivals = pseudosnapshot._FireKey, _Arrivals.__init__

    def counted_key(*args):
        made["keys"] += 1
        return fire_key(*args)

    def counted_arrivals(self, stream):
        made["arrivals"] += 1
        arrivals(self, stream)

    monkeypatch.setattr(pseudosnapshot, "_FireKey", counted_key)
    monkeypatch.setattr(_Arrivals, "__init__", counted_arrivals)
    plan = build_plan(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)
    ends = [
        run_single(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, 3, handle_id=h, plan=plan)
        for h in range(40)
    ]
    assert sum(est.terminated_by != "StreamEnd" for est in ends) > 5
    terminal_law(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, plan=plan)
    estimate(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, master_seed=3, copies=40)
    # the estimate builds a plan of its own, once for all its copies
    assert made == {"keys": 2, "arrivals": 2}


# -- the exact terminal law ------------------------------------------------


def test_fixture_class_counts():
    """Independent degree scan behind the frozen oracle values."""
    deg = [0] * 13
    fired_a = [0] * 13
    fired_b = [0] * 13
    in_class = qualifying = 0
    for k, (u, v) in enumerate(FIX_STREAM.edges, start=1):
        deg[u] += 1
        deg[v] += 1
        fired_a[u] += FIX_HASHES.f(4, k)
        fired_b[u] += FIX_HASHES.f(2, k)
        if deg[u] == 4 and deg[v] == 2:
            in_class += 1
            if fired_a[u] < 2 and fired_b[v] < 2:
                qualifying += 1
    assert (in_class, qualifying) == (4, 3)
    oracle = lemma_expectation(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)
    assert (oracle.in_class, oracle.qualifying) == (4, 3)
    assert oracle.expectation == ((0, 1), (1, 0))


def test_law_expectation_equals_lemma_oracle_exactly(fix_law):
    oracle = lemma_expectation(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)
    exp = fix_law.expectation()
    for a in range(2):
        for b in range(2):
            assert exp[a][b] == oracle.expectation[a][b]
    assert sum(fix_law.atoms.values()) == 1
    assert fix_law.atoms[("StreamEnd", None, 0)] == Fraction(229, 320)


def test_bias_bound_against_restricted_exact(fix_law):
    """The estimator mean misses the restricted snapshot only through
    in-class edges crowded out of the query window, one count each."""
    oracle = lemma_expectation(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)
    restricted = pseudosnapshot_exact(
        FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, restricted=True
    )
    gap = 0
    for a in range(2):
        for b in range(2):
            diff = restricted[a][b] - oracle.expectation[a][b]
            assert diff >= 0
            gap += diff
    assert gap <= oracle.nonqualifying
    assert gap == 1  # exactly the one crowded-out edge in this fixture


def test_bias_bound_is_tight_at_scale(monkeypatch):
    """n = 1000, m = 10^4: one arrival table per oracle call keeps this exact
    check fast, and this instance meets the bound with equality."""
    stream = random_directed(1000, 10_000, 5)
    grid = DegreeGrid.from_eps(1000, "1/2")
    hashes = HashOracles(seed=7, kappa=2, eps="1/2")
    params = SnapshotParams(kappa=2, eps="1/2", thresholds=("-1", "0"), class_pair=(3, 1))
    oracle = lemma_expectation(stream, hashes, grid, params)
    # the restricted count decides each edge's class before it hashes
    stats = _Arrivals.stats
    calls = []
    monkeypatch.setattr(_Arrivals, "stats", lambda *a: calls.append(a) or stats(*a))
    restricted = pseudosnapshot_exact(stream, hashes, grid, params, restricted=True)
    assert len(calls) == 2 * oracle.in_class == 164
    gaps = [
        restricted[a][b] - oracle.expectation[a][b] for a in range(2) for b in range(2)
    ]
    assert min(gaps) >= 0
    assert sum(gaps) == oracle.nonqualifying == 10


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 6),
    m=st.integers(1, 6),
    hseed=st.integers(0, 50),
    kappa=st.sampled_from([1, 2]),
    pair=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    thresholds=st.sampled_from([("-1", "0"), ("-1", "-1/2", "0", "1/2")]),
)
@example(seed=3, n=6, m=4, hseed=3, kappa=2, pair=(0, 0), thresholds=("-1", "-1/2", "0", "1/2"))
@settings(max_examples=25, deadline=None)
def test_law_equals_lemma_on_random_instances(seed, n, m, hseed, kappa, pair, thresholds):
    m = min(m, n * (n - 1))
    stream = random_directed(n, m, seed)
    grid = DegreeGrid.from_eps(n, "0.5")
    hashes = HashOracles(seed=hseed, kappa=kappa, eps="0.5")
    classes = len(grid.levels) - 1
    params = SnapshotParams(
        kappa=kappa, eps="0.5", thresholds=thresholds,
        class_pair=(pair[0] % classes, pair[1] % classes),
    )
    law = terminal_law(stream, hashes, grid, params)
    oracle = lemma_expectation(stream, hashes, grid, params)
    assert sum(law.atoms.values()) == 1
    assert law.expectation() == [list(row) for row in oracle.expectation]


def test_run_single_frequencies_match_law():
    """Realized runs versus the law on a smaller instance, 4.5 sigma."""
    stream = random_directed(6, 8, 4)
    grid = DegreeGrid.from_eps(6, "0.5")
    hashes = HashOracles(seed=5, kappa=1, eps="0.5")
    params = SnapshotParams(kappa=1, eps="0.5", thresholds=("-1", "0"), class_pair=(1, 0))
    plan = build_plan(stream, hashes, grid, params)
    law = terminal_law(stream, hashes, grid, params, plan=plan)
    trials = 1500
    counts: dict = {}
    for s in range(trials):
        key = run_single(stream, hashes, grid, params, s, plan=plan).key
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(law.atoms)
    for key, p in law.atoms.items():
        p = float(p)
        sigma = (trials * p * (1 - p)) ** 0.5
        observed = counts.get(key, 0)
        assert abs(observed - trials * p) <= 4.5 * sigma + 1e-9, (key, observed, trials * p)


def test_sampler_matches_law_expectation(fix_law):
    trials = 150_000
    rows, cols, vals = fix_law.sample(321, trials)
    total = np.zeros((2, 2))
    np.add.at(total, (rows[rows >= 0], cols[rows >= 0]), vals[rows >= 0])
    mean = total / trials
    for a in range(2):
        for b in range(2):
            ex = float(fix_law.expectation()[a][b])
            second = sum(
                float(p) * k[2] ** 2 for k, p in fix_law.atoms.items() if k[1] == (a, b)
            )
            sigma = ((second - ex**2) / trials) ** 0.5
            assert abs(mean[a][b] - ex) <= 4.5 * sigma
            # loose variance sanity: one run never exceeds (M/2)^2
            assert second <= (fix_law.big_m / 2) ** 2


@pytest.mark.parametrize("stream", [MINI_STREAM, DirectedEdgeStream(3, ())])
@pytest.mark.parametrize("copies", [0, -1])
def test_estimates_need_at_least_one_copy(stream, copies):
    for fn in (estimate, estimate_sampled):
        with pytest.raises(InvalidParamsError, match=f"copies must be >= 1, got {copies}"):
            fn(stream, MINI_HASHES, MINI_GRID, MINI_PARAMS, copies=copies)


def test_estimate_sampled_shape_and_scale(fix_plan):
    est = estimate_sampled(
        FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS, master_seed=9, copies=20_000
    )
    assert est.shape == (2, 2)
    assert np.all(np.abs(est) <= fix_plan.big_m / 2)


# -- stack mirror ----------------------------------------------------------


def test_mirror_tracks_instrumented_runs(fix_plan):
    mirror = StackMirror(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)
    expected = []
    while mirror.edge_ptr < FIX_STREAM.m:
        k = mirror.step()
        touched = {w for u, v in FIX_STREAM.edges[:k] for w in (u, v)}
        for w in touched:
            mirror.check_stack_form(w)
        expected.append((k, mirror.expected_members()))
    expected = frame_by_plan(fix_plan, expected)
    assert mirror.cursor <= fix_plan.big_m
    consumed = 8 * 8 * FIX_STREAM.m + 2 * 8 * (
        5 * sum(fix_plan.f_alpha) + 3 * sum(fix_plan.f_beta)
    )
    assert mirror.cursor == consumed

    survived = 0
    for seed in (11, 12, 13):
        snaps = []
        est = run_single(
            FIX_STREAM,
            FIX_HASHES,
            FIX_GRID,
            FIX_PARAMS,
            seed,
            plan=fix_plan,
            observer=lambda k, mem: snaps.append((k, mem)),
        )
        for (k, mem), (k2, want) in zip(snaps, expected):
            assert k == k2
            assert mem == want
        if est.terminated_by == "StreamEnd":
            survived += 1
            assert len(snaps) == FIX_STREAM.m
    assert survived >= 1


def test_mirror_stack_form_catches_corruption():
    mirror = StackMirror(FIX_STREAM, FIX_HASHES, FIX_GRID, FIX_PARAMS)
    for _ in range(10):
        mirror.step()
    u = FIX_STREAM.edges[0][0]
    mirror.sets[(u, "A")].add(973)  # an island no inc/wipe pattern can make
    with pytest.raises(AssertionError):
        mirror.check_stack_form(u)
