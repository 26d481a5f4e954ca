from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from pairsketch import InvalidParamsError, Update, ValidationError, enumerate_distribution
from pairsketch.heavy_edges import (
    DirectedEdgeStream,
    HeavyParams,
    build_script,
    estimate,
    estimate_sampled,
    heavy_universe,
    oracle_heavy_count,
    run_single,
    sample_outputs,
    terminal_law,
)
from permutation_reference import frame_steps

STAR = DirectedEdgeStream(4, ((3, 1), (3, 2), (3, 4)))


def random_directed(n, m, seed):
    rng = np.random.default_rng(seed)
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    idx = rng.choice(len(pool), size=m, replace=False)
    return DirectedEdgeStream(n, tuple(pool[i] for i in idx))


# -- stream and params validation ------------------------------------------------


def test_stream_validation():
    with pytest.raises(ValidationError):
        DirectedEdgeStream(3, ((2, 2),))
    with pytest.raises(ValidationError):
        DirectedEdgeStream(3, ((1, 2), (1, 2)))
    with pytest.raises(ValidationError):
        DirectedEdgeStream(3, ((0, 2),))
    # opposite orientations are two distinct edges
    s = DirectedEdgeStream(3, ((1, 2), (2, 1)))
    assert s.m == 2


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        HeavyParams(0, 1, 0.5)
    with pytest.raises(InvalidParamsError):
        HeavyParams(1, 1, 0.0)
    with pytest.raises(InvalidParamsError):
        run_single(STAR, 8, 1, 0)  # positions stop at 2n-1 = 7


@pytest.mark.parametrize("stream", [STAR, DirectedEdgeStream(3, ())], ids=["star", "empty"])
def test_every_entry_point_rejects_thresholds_past_the_stack(stream):
    top = 2 * stream.n  # one past the last stack position
    params = HeavyParams(top, 1, 0.5)
    for call in (
        lambda: run_single(stream, top, 1, 0),
        lambda: terminal_law(stream, 1, top),
        lambda: estimate(stream, params, 0),
        lambda: estimate_sampled(stream, params, 0),
    ):
        with pytest.raises(InvalidParamsError, match="stack positions"):
            call()


# -- oracle -----------------------------------------------------------------------


def test_oracle_star():
    assert oracle_heavy_count(STAR, 2, 1) == 2


def test_oracle_trivial_thresholds():
    for seed in range(3):
        stream = random_directed(6, 10, seed)
        assert oracle_heavy_count(stream, 1, 1) == stream.m
        assert oracle_heavy_count(stream, 2 * stream.n, 1) == 0


def test_oracle_counts_incident_degree_on_both_sides():
    # 1->2, 3->2, 2->4: vertex 2 reaches degree 3 via in and out edges,
    # so only the last edge sees a head of degree 3
    stream = DirectedEdgeStream(4, ((1, 2), (3, 2), (2, 4)))
    assert oracle_heavy_count(stream, 3, 1) == 1
    # in-edges count toward the tail threshold too: 3->2 is the only edge
    # whose tail has already been touched
    assert oracle_heavy_count(stream, 1, 2) == 1


# -- exact law vs oracle, and vs full enumeration -----------------------------------


def test_star_exact_distribution_via_enumeration():
    universe, script = build_script(STAR, 2, 1)
    assert len(script) <= 12
    scratch_off = universe.block_offset("scratch")
    dist = enumerate_distribution(universe, range(scratch_off, scratch_off + 12), script)
    agg: dict[int, Fraction] = {}
    for key, p in dist.entries.items():
        hit = next((sym for sym in key if sym != "Bot"), None)
        val = 6 if hit == "Plus" else -6 if hit == "Minus" else 0
        agg[val] = agg.get(val, Fraction(0)) + p
    law = terminal_law(STAR, 2, 1)
    assert agg == law.atoms
    mean = sum(x * p for x, p in agg.items())
    assert mean == 2
    # frozen attribution: two both-present edges, one one-present edge
    assert law.atoms[6] == Fraction(2, 6) + Fraction(1, 24)
    assert law.atoms[-6] == Fraction(1, 24)


def test_law_mean_equals_oracle_exactly():
    for seed in range(6):
        stream = random_directed(7, 14, seed)
        for d_H, d_T in ((1, 1), (2, 1), (3, 2), (4, 4)):
            law = terminal_law(stream, d_H, d_T)
            assert law.expect(int) == oracle_heavy_count(stream, d_H, d_T)


def test_presence_counts_split_by_threshold_condition():
    stream = random_directed(8, 18, 42)
    d_H, d_T = 3, 2
    deg = [0] * (stream.n + 1)
    both = one = 0
    for u, v in stream.edges:
        deg[u] += 1
        deg[v] += 1
        hu, tv = deg[u] >= d_H, deg[v] >= d_T
        both += hu and tv
        one += hu != tv
    law = terminal_law(stream, d_H, d_T)
    m = stream.m
    assert law.atoms[2 * m] == Fraction(both, 2 * m) + Fraction(one, 8 * m)
    assert law.atoms[-2 * m] == Fraction(one, 8 * m)


def test_spurious_signs_cancel():
    # heads qualify instantly, tails never do: every query is one-present
    stream = DirectedEdgeStream(8, ((1, 2), (3, 4), (5, 6), (7, 8)))
    law = terminal_law(stream, 1, 2)
    assert law.atoms[8] == law.atoms[-8] > 0
    assert law.expect(int) == 0
    draws = sample_outputs(stream, 1, 2, 11, 100_000)
    se = float(np.std(draws)) / np.sqrt(len(draws)) + 1e-12
    assert abs(float(np.mean(draws))) < 4 * se


# -- run_single --------------------------------------------------------------------


def test_run_single_bounded_and_deterministic():
    stream = random_directed(6, 12, 3)
    outs = [run_single(stream, 2, 1, 7, handle_id=i) for i in range(200)]
    assert set(outs) <= {-2 * stream.m, 0, 2 * stream.m}
    assert outs == [run_single(stream, 2, 1, 7, handle_id=i) for i in range(200)]


def test_run_single_frequencies_match_law():
    stream = random_directed(6, 12, 5)
    law = terminal_law(stream, 2, 1)
    trials = 4000
    outs = np.array([run_single(stream, 2, 1, 13, handle_id=i) for i in range(trials)])
    for x, p in law.atoms.items():
        freq = float(np.mean(outs == x))
        se = float(np.sqrt(float(p) * (1 - float(p)) / trials)) + 1e-9
        assert abs(freq - float(p)) < 4.5 * se, (x, freq, float(p))


def test_sampler_draws_from_law():
    stream = random_directed(9, 20, 8)
    law = terminal_law(stream, 3, 2)
    draws = sample_outputs(stream, 3, 2, 21, 150_000)
    for x, p in law.atoms.items():
        freq = float(np.mean(draws == x))
        se = float(np.sqrt(float(p) * (1 - float(p)) / 150_000)) + 1e-12
        assert abs(freq - float(p)) < 4.5 * se


# -- the member-set mirror -----------------------------------------------------------


def heavy_mirror(stream, d_H, d_T):
    """Independent prediction of the member set after each edge (miss path).

    Tracks, per vertex and label, which insertion indices are still alive;
    the element inserted by a vertex's a-th incident edge currently sits at
    position deg - a + 1. The head-side query at d_H consumes insertion
    index deg - d_H + 1, and only a head edge can consume an H element.
    """
    universe = heavy_universe(stream)
    scratch_off = universe.block_offset("scratch")
    deg = [0] * (stream.n + 1)
    alive = {"H": defaultdict(set), "T": defaultdict(set)}
    expected = []
    for ell, (u, v) in enumerate(stream.edges, start=1):
        for w in (u, v):
            deg[w] += 1
            alive["H"][w].add(deg[w])
            alive["T"][w].add(deg[w])
        alive["H"][u].discard(deg[u] - d_H + 1)
        alive["T"][v].discard(deg[v] - d_T + 1)
        members = set(range(scratch_off + 4 * ell, scratch_off + 4 * stream.m))
        for label in ("H", "T"):
            for w, idxs in alive[label].items():
                for a in idxs:
                    members.add(universe.encode("stack", (w, label, deg[w] - a + 1)))
        expected.append(members)
    return expected


def test_members_match_independent_mirror_each_step():
    stream = random_directed(8, 20, 17)
    for d_H, d_T in ((2, 1), (3, 2)):
        # runs hold framed ids, so the mirror is framed once per edge
        universe, script = build_script(stream, d_H, d_T)
        updates = [op.perm for op in script if isinstance(op, Update)]
        expected = frame_steps(universe, updates, heavy_mirror(stream, d_H, d_T))
        survived = 0
        for hid in range(60):
            seen = []

            def observer(ell, members):
                seen.append((ell, members))

            run_single(stream, d_H, d_T, 29, handle_id=hid, observer=observer)
            survived += len(seen) == stream.m
            for ell, members in seen:
                assert members == expected[ell - 1], f"divergence at edge {ell}"
        assert survived > 0  # the invariant was exercised over full streams


# -- estimate -------------------------------------------------------------------------


def test_estimate_star():
    est = estimate(STAR, HeavyParams(2, 1, 0.1), seed=1, copies=4800)
    assert abs(est - 2.0) <= 0.3


def test_estimate_all_light_and_all_heavy():
    stream = random_directed(5, 8, 2)
    assert estimate(DirectedEdgeStream(5, ()), HeavyParams(1, 1, 0.5), seed=0) == 0.0
    law = terminal_law(stream, 1, 1)
    assert law.expect(int) == stream.m
    est = estimate_sampled(stream, HeavyParams(1, 1, 0.5), seed=3, copies=100_000)
    sigma = 2 * stream.m / np.sqrt(100_000)
    assert abs(est - stream.m) < 4 * sigma


@pytest.mark.parametrize("copies", [0, -1])
@pytest.mark.parametrize("stream", [STAR, DirectedEdgeStream(3, ())], ids=["star", "empty"])
def test_estimates_need_at_least_one_copy(stream, copies):
    params = HeavyParams(2, 1, 0.5)
    for fn in (estimate, estimate_sampled):
        with pytest.raises(InvalidParamsError, match=f"copies must be >= 1, got {copies}"):
            fn(stream, params, 0, copies=copies)
