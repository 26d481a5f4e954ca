from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pairsketch import (
    InvalidParamsError,
    QueryPair,
    Update,
    ValidationError,
    enumerate_distribution,
    replay_noiseless,
    swap_perm,
)
from pairsketch.triangle import (
    EdgeStream,
    TriangleParams,
    choose_k,
    estimate,
    estimate_sampled,
    oracle_t_split,
    run_single,
    sample_outputs,
    terminal_law,
    triangle_universe,
)

K3 = EdgeStream(3, ((1, 2), (1, 3), (2, 3)))


def random_stream(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    rng.shuffle(edges)
    return EdgeStream(n, tuple((int(u), int(v)) for u, v in edges))


# -- references ------------------------------------------------------------------


def exact_output_distribution(stream, k):
    """Exact law of run_single by averaging over all 2^m selection patterns."""
    m = stream.m
    if m == 0:
        return {0: Fraction(1)}
    assert m <= 16, "exponential in m"
    p_sel = Fraction(1, k)
    nbr_arrival = _nbr_arrival(stream)
    law = {}
    km = k * m
    for mask in range(2**m):
        pattern = tuple((mask >> i) & 1 == 1 for i in range(m))
        p_pattern = Fraction(1)
        for bit in pattern:
            p_pattern *= p_sel if bit else 1 - p_sel
        if p_pattern == 0:
            continue
        pp, pm = _pattern_fire_probs(stream, pattern, nbr_arrival)
        law[km] = law.get(km, Fraction(0)) + p_pattern * pp
        law[-km] = law.get(-km, Fraction(0)) + p_pattern * pm
        law[0] = law.get(0, Fraction(0)) + p_pattern * (1 - pp - pm)
    law = {x: p for x, p in law.items() if p}
    assert sum(law.values()) == 1
    return law


def _nbr_arrival(stream):
    nbr_arrival = [dict() for _ in range(stream.n + 1)]
    for ell, (u, v) in enumerate(stream.edges, start=1):
        nbr_arrival[u][v] = ell
        nbr_arrival[v][u] = ell
    return nbr_arrival


def _pattern_fire_probs(stream, pattern, nbr_arrival=None):
    """Exact (P[Plus], P[Minus]) for one fixed selection pattern."""
    if nbr_arrival is None:
        nbr_arrival = _nbr_arrival(stream)
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


def _oracle_by_triples(stream, k):
    """The split by looping over all C(n, 3) vertex triples: (T_less, rows)."""
    arrival = {frozenset(e): i + 1 for i, e in enumerate(stream.edges)}
    incident = {v: [] for v in range(1, stream.n + 1)}
    for i, (u, v) in enumerate(stream.edges):
        incident[u].append(i + 1)
        incident[v].append(i + 1)
    damp = Fraction(k - 1, k)
    rows = []
    for tri in combinations(range(1, stream.n + 1), 3):
        pairs = [frozenset(p) for p in combinations(tri, 2)]
        if not all(p in arrival for p in pairs):
            continue
        (a1, e1), (a2, e2), (a3, _) = sorted((arrival[p], p) for p in pairs)
        (apex,) = e1 & e2
        (v,) = e1 - {apex}
        (w,) = e2 - {apex}
        d_v = sum(1 for a in incident[v] if a1 < a < a3)
        d_w = sum(1 for a in incident[w] if a2 < a < a3)
        rows.append((apex, v, w, d_v, d_w, damp ** (d_v + d_w)))
    return sum((row[5] for row in rows), Fraction(0)), tuple(rows)


# -- stream validation ---------------------------------------------------------


def test_stream_rejects_loops_duplicates_and_range():
    with pytest.raises(ValidationError):
        EdgeStream(3, ((1, 1),))
    with pytest.raises(ValidationError):
        EdgeStream(3, ((1, 2), (2, 1)))
    with pytest.raises(ValidationError):
        EdgeStream(3, ((1, 4),))


# -- oracle ---------------------------------------------------------------------


def test_oracle_k3_is_undamped():
    for k in (1, 2, 5):
        rep = oracle_t_split(K3, k)
        assert rep.T == 1
        assert rep.T_less == 1
        assert rep.T_greater == 0
        ((apex, v, w, d1, d2, t),) = rep.per_triangle
        assert (apex, v, w) == (1, 2, 3)
        assert (d1, d2) == (0, 0)
        assert t == 1


def test_oracle_triangle_free():
    rep = oracle_t_split(EdgeStream(4, ((1, 2), (3, 4), (1, 3))), 3)
    assert rep.T == 0 and rep.T_less == 0 and rep.T_greater == 0


def test_oracle_one_interposed_edge_halves_at_k2():
    # extra edge at vertex 2 arrives between (1,2) and (2,3)
    stream = EdgeStream(4, ((1, 2), (1, 3), (2, 4), (2, 3)))
    rep = oracle_t_split(stream, 2)
    assert rep.T == 1
    assert rep.T_less == Fraction(1, 2)
    assert rep.T_greater == Fraction(1, 2)
    ((apex, v, w, d1, d2, t),) = rep.per_triangle
    assert (apex, v, w) == (1, 2, 3)
    assert (d1, d2) == (1, 0)
    assert t == Fraction(1, 2)


def test_oracle_split_is_exact_on_random_graphs():
    for n, p, seed in [(10, 0.45, s) for s in range(5)] + [(40, 0.2, 1), (60, 0.15, 2)]:
        stream = random_stream(n, p, seed)
        for k in (1, 2, 3, 7):
            rep = oracle_t_split(stream, k)
            assert rep.T_less + rep.T_greater == rep.T
            assert all(0 <= row[5] <= 1 for row in rep.per_triangle)
            assert len(rep.per_triangle) == rep.T
            assert (rep.T_less, rep.per_triangle) == _oracle_by_triples(stream, k)


def test_choose_k():
    assert choose_k(1, 1, 1) == 1
    assert choose_k(0.01, 1000, 0.5) == 1  # clamped
    assert choose_k(32, 32, 1) == 2  # 32**0.4 / 32**0.2 = 32**0.2
    with pytest.raises(InvalidParamsError):
        choose_k(0, 3, 1)


# -- presence model vs the sketch, exactly ---------------------------------------


def _pattern_script(stream, pattern):
    universe = triangle_universe(stream)
    off = universe.block_offset("scratch")
    n = stream.n

    def pid(a, b):
        return (a - 1) * n + (b - 1)

    ops = []
    for ell, (u, v) in enumerate(stream.edges, start=1):
        if pattern[ell - 1]:
            for w in range(1, n + 1):
                ops.append(QueryPair(pid(w, u), pid(w, v)))
        ops.append(
            Update(
                swap_perm(
                    universe,
                    (off + 2 * ell - 2, pid(u, v)),
                    (off + 2 * ell - 1, pid(v, u)),
                )
            )
        )
    return universe, off, ops


def test_pattern_fire_probs_match_noiseless_replay():
    stream = EdgeStream(5, ((1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (1, 4)))
    m = stream.m
    for mask in range(2**m):
        pattern = tuple((mask >> i) & 1 == 1 for i in range(m))
        universe, off, script = _pattern_script(stream, pattern)
        trace = replay_noiseless(universe, range(off, off + 2 * m), script)
        pp = sum(
            (Fraction(2, 2 * m) if s.present_count == 2 else Fraction(1, 4 * m))
            for s in trace.steps
            if s.present_count > 0
        )
        pm = sum(
            Fraction(1, 4 * m) for s in trace.steps if s.present_count == 1
        )
        assert (pp, pm) == _pattern_fire_probs(stream, pattern)


def test_k3_exact_distribution_via_enumeration():
    universe, off, script = _pattern_script(K3, (True, True, True))
    assert len(script) <= 12
    dist = enumerate_distribution(universe, range(off, off + 6), script)
    km = 3
    agg = {km: Fraction(0), -km: Fraction(0), 0: Fraction(0)}
    for key, p in dist.entries.items():
        hit = next((sym for sym in key if sym != "Bot"), None)
        agg[km if hit == "Plus" else -km if hit == "Minus" else 0] += p
    assert agg == {3: Fraction(5, 12), -3: Fraction(1, 12), 0: Fraction(1, 2)}
    expect = sum(x * p for x, p in agg.items())
    assert expect == 1  # == oracle T_less for k=1
    assert exact_output_distribution(K3, 1) == {k: v for k, v in agg.items() if v}
    assert terminal_law(K3, 1).atoms == agg


def test_exact_law_expectation_equals_oracle_everywhere():
    streams = [
        K3,
        EdgeStream(4, ((1, 2), (1, 3), (2, 4), (2, 3))),
        random_stream(6, 0.5, 3),
        random_stream(6, 0.6, 9),
    ]
    for stream in streams:
        if stream.m > 12:
            continue
        for k in (1, 2, 3):
            law = exact_output_distribution(stream, k)
            mean = sum(x * p for x, p in law.items())
            assert mean == oracle_t_split(stream, k).T_less


SMALL_STREAMS = [
    K3,
    EdgeStream(4, ()),
    EdgeStream(2, ((1, 2),)),
    EdgeStream(4, ((1, 2), (1, 3), (2, 4), (2, 3))),
    EdgeStream(4, tuple(combinations(range(1, 5), 2))),
    EdgeStream(8, ((1, 2), (3, 4), (5, 6), (7, 8))),
    EdgeStream(5, ((1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (1, 4))),
] + [random_stream(n, 0.55, seed) for n in (5, 6, 7) for seed in range(8)]
SMALL_STREAMS = [s for s in SMALL_STREAMS if s.m <= 12]  # the enumeration is 2^m


@pytest.mark.parametrize("k", [1, 2, 3])
def test_terminal_law_equals_pattern_enumeration(k):
    for stream in SMALL_STREAMS:
        assert terminal_law(stream, k).atoms == exact_output_distribution(stream, k), stream


def test_terminal_law_mean_is_t_less_at_scale():
    for n, p in ((12, 0.5), (30, 0.3), (60, 0.15), (200, 0.05)):
        stream = random_stream(n, p, n)
        for k in (1, 2, 5):
            km = k * stream.m
            law = terminal_law(stream, k)
            assert set(law.atoms) <= {km, -km, 0}
            assert law.expect(int) == oracle_t_split(stream, k).T_less
            assert all(p > 0 for p in law.atoms.values())


def _fraction_loop_law(stream, k):
    """The reference pass: B and the A sums kept as Fractions, edge by edge."""
    m = stream.m
    q = 1 - Fraction(1, k)
    rank = [{} for _ in range(stream.n + 1)]
    reach = [Fraction(0)] * (stream.n + 1)
    expected = {2: Fraction(0), 1: Fraction(0)}
    for u, v in stream.edges:
        ru, rv = rank[u], rank[v]
        both = sum((q ** (len(ru) - 1 - ru[w] + len(rv) - 1 - rv[w])
                    for w in ru.keys() & rv.keys()), Fraction(0))
        expected[2] += both
        expected[1] += reach[u] + reach[v] - 2 * both
        ru[v], rv[u] = len(ru), len(rv)
        reach[u], reach[v] = 1 + q * reach[u], 1 + q * reach[v]
    fire = {2: Fraction(2, 2 * m), 1: Fraction(1, 2 * 2 * m)}  # each sign, FIRE_LAW at 2m
    plus = sum(count * fire[present] / k for present, count in expected.items())
    minus = expected[1] * fire[1] / k
    atoms = {k * m: plus, -k * m: minus, 0: 1 - plus - minus}
    return {x: p for x, p in atoms.items() if p}


def test_terminal_law_equals_the_fraction_loop():
    for n, p in ((12, 0.5), (30, 0.3), (60, 0.15)):
        stream = random_stream(n, p, n + 1)
        for k in (1, 2, 5):
            law = terminal_law(stream, k)
            assert list(law.atoms.items()) == list(_fraction_loop_law(stream, k).items())


# -- run_single and sampler -------------------------------------------------------


def test_run_single_outputs_bounded_and_deterministic():
    stream = random_stream(7, 0.5, 11)
    km = 2 * stream.m
    outs = [run_single(stream, 2, 5, handle_id=i) for i in range(300)]
    assert set(outs) <= {-km, 0, km}
    assert outs == [run_single(stream, 2, 5, handle_id=i) for i in range(300)]


def test_run_single_frequencies_match_exact_law():
    stream = random_stream(6, 0.55, 4)
    k = 2
    law = terminal_law(stream, k).atoms
    trials = 4000
    outs = np.array([run_single(stream, k, 31, handle_id=i) for i in range(trials)])
    for x, p in law.items():
        freq = float(np.mean(outs == x))
        se = float(np.sqrt(float(p) * (1 - float(p)) / trials)) + 1e-9
        assert abs(freq - float(p)) < 4.5 * se, (x, freq, float(p))


def test_sampler_matches_exact_law():
    stream = random_stream(6, 0.55, 8)
    for k in (1, 3):
        law = exact_output_distribution(stream, k)
        draws = sample_outputs(stream, k, 17, 120_000)
        assert set(np.unique(draws)) <= {-k * stream.m, 0, k * stream.m}
        for x, p in law.items():
            freq = float(np.mean(draws == x))
            se = float(np.sqrt(float(p) * (1 - float(p)) / 120_000)) + 1e-12
            assert abs(freq - float(p)) < 4.5 * se, (k, x, freq, float(p))


def _sample_outputs_trial_major(stream, k, master_seed, trials):
    """Per-trial simulation of the selection pattern; a reference for the law."""
    m = stream.m
    out = np.zeros(trials, dtype=np.int32)
    if m == 0 or trials == 0:
        return out
    n = stream.n
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 3]))
    nbr_arrival = [dict() for _ in range(n + 1)]
    arrivals = [[] for _ in range(n + 1)]
    prep = []
    for ell, (u, v) in enumerate(stream.edges, start=1):
        common = sorted(nbr_arrival[u].keys() & nbr_arrival[v].keys())
        cn_u = np.array([nbr_arrival[u][w] for w in common], dtype=np.int64)
        cn_v = np.array([nbr_arrival[v][w] for w in common], dtype=np.int64)
        prep.append((u, v, np.array(arrivals[u], dtype=np.int64),
                     np.array(arrivals[v], dtype=np.int64), cn_u, cn_v))
        nbr_arrival[u][v] = nbr_arrival[v][u] = ell
        arrivals[u].append(ell)
        arrivals[v].append(ell)
    last = np.zeros((trials, n + 1), dtype=np.int64)
    p_plus = np.zeros(trials)
    p_minus = np.zeros(trials)
    inv_k = 1.0 / k
    for ell, (u, v, arr_u, arr_v, cn_u, cn_v) in enumerate(prep, start=1):
        sel = rng.random(trials) < inv_k
        alive_u = arr_u.size - np.searchsorted(arr_u, last[:, u])
        alive_v = arr_v.size - np.searchsorted(arr_v, last[:, v])
        both = np.zeros(trials, dtype=np.int64)
        for awu, awv in zip(cn_u, cn_v):
            both += (last[:, u] <= awu) & (last[:, v] <= awv)
        single = alive_u + alive_v - 2 * both
        p_plus += sel * (both / m + single / (4 * m))
        p_minus += sel * (single / (4 * m))
        last[sel, u] = ell
        last[sel, v] = ell
    draw = rng.random(trials)
    km = k * m
    out[draw < p_plus] = km
    out[(draw >= p_plus) & (draw < p_plus + p_minus)] = -km
    return out


@pytest.mark.parametrize(
    "stream, k, seed, trials",
    [
        (K3, 1, 0, 1000),
        (K3, 3, 5, 1000),
        (random_stream(12, 0.5, 3), 2, 11, 4000),
        (random_stream(30, 0.3, 1), 2, 7, 4000),
        (random_stream(200, 0.05, 2), 5, 13, 1000),
        (EdgeStream(4, ()), 2, 0, 10),
    ],
    ids=["k3-k1", "k3-k3", "n12", "n30", "n200", "empty"],
)
def test_trial_major_reference_matches_terminal_law(stream, k, seed, trials):
    law = terminal_law(stream, k).atoms
    draws = _sample_outputs_trial_major(stream, k, seed, trials)
    assert set(np.unique(draws)) <= set(law)
    for x, p in law.items():
        freq = float(np.mean(draws == x))
        se = float(np.sqrt(float(p) * (1 - float(p)) / trials))
        assert abs(freq - float(p)) <= 4 * se, (x, freq, float(p))


def test_sampler_mean_tracks_oracle_on_larger_graph():
    stream = random_stream(20, 0.3, 6)
    k = 3
    rep = oracle_t_split(stream, k)
    draws = sample_outputs(stream, k, 23, 200_000)
    mean = float(np.mean(draws))
    se = float(np.std(draws)) / np.sqrt(len(draws))
    assert abs(mean - float(rep.T_less)) < 4 * se


# -- loop invariant mirror ---------------------------------------------------------


def test_members_match_independent_mirror_each_step():
    stream = random_stream(8, 0.4, 2)
    m, n = stream.m, stream.n
    universe = triangle_universe(stream)
    off = universe.block_offset("scratch")

    def pid(a, b):
        return (a - 1) * n + (b - 1)

    for hid in range(50):
        g = np.random.default_rng(np.random.SeedSequence([9, hid, 2]))
        pairs: set[tuple[int, int]] = set()
        expected = []
        for ell, (u, v) in enumerate(stream.edges, start=1):
            if g.random() * 2 < 1.0:  # k = 2
                pairs = {(a, b) for (a, b) in pairs if b not in (u, v)}
            pairs |= {(u, v), (v, u)}
            expected.append(
                set(range(off + 2 * ell, off + 2 * m)) | {pid(a, b) for a, b in pairs}
            )

        seen = []

        def observer(ell, members):
            seen.append((ell, members))

        run_single(stream, 2, 9, handle_id=hid, observer=observer)
        for ell, members in seen:
            assert members == expected[ell - 1], f"divergence at edge {ell}"


# -- estimate ------------------------------------------------------------------------


def test_estimate_k3_with_many_copies():
    params = TriangleParams(k=1, T_prime=1, Delta_E=1, eps=0.1, delta=0.01,
                            repetitions=(10_000, 1))
    est = estimate(K3, params, master_seed=2)
    assert abs(est - 1.0) <= 0.1


def test_estimate_empty_stream_is_zero():
    params = TriangleParams(k=1, T_prime=1, Delta_E=1, eps=0.5, delta=0.5,
                            repetitions=(10, 1))
    assert estimate(EdgeStream(4, ()), params) == 0.0
    assert run_single(EdgeStream(4, ()), 2, 0) == 0


def test_disjoint_edges_cancel_in_expectation():
    stream = EdgeStream(8, ((1, 2), (3, 4), (5, 6), (7, 8)))
    assert terminal_law(stream, 2).expect(int) == 0
    est = estimate_sampled(
        stream,
        TriangleParams(k=2, T_prime=1, Delta_E=1, eps=0.5, delta=0.5,
                       repetitions=(50_000, 1)),
        master_seed=3,
    )
    assert abs(est) < 0.5


def test_estimate_sampled_agrees_with_oracle():
    stream = random_stream(12, 0.5, 19)
    k = 2
    rep = oracle_t_split(stream, k)
    params = TriangleParams(k=k, T_prime=float(rep.T_less) or 1.0, Delta_E=3, eps=0.2,
                            delta=0.2, repetitions=(60_000, 3))
    est = estimate_sampled(stream, params, master_seed=8)
    sigma = k * stream.m / np.sqrt(60_000)
    assert abs(est - float(rep.T_less)) < 4 * sigma


def test_selection_pattern_matches_per_edge_draws_at_large_m():
    # run_single draws its m selection uniforms in one block; the members
    # after every edge must still follow one g.random() per edge
    stream = random_stream(20, 0.6, 4)
    m, n, k = stream.m, stream.n, 4
    assert m >= 100
    off = triangle_universe(stream).block_offset("scratch")
    passed = []
    for hid in range(20):
        g = np.random.default_rng(np.random.SeedSequence([9, hid, 2]))
        pairs: set[tuple[int, int]] = set()
        seen = []
        run_single(stream, k, 9, handle_id=hid, observer=lambda ell, mem: seen.append(mem))
        for ell, (u, v) in enumerate(stream.edges[: len(seen)], start=1):
            if g.random() * k < 1.0:
                pairs = {(a, b) for (a, b) in pairs if b not in (u, v)}
            pairs |= {(u, v), (v, u)}
            want = set(range(off + 2 * ell, off + 2 * m)) | {(a - 1) * n + b - 1 for a, b in pairs}
            assert seen[ell - 1] == want, f"handle {hid} diverges at edge {ell}"
        passed.append(len(seen))
    assert sum(p == m for p in passed) >= 5, passed
