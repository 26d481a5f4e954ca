"""End-to-end acceptance gates, one test (and one printed line) per criterion.

Every test checks its claims at the stated tolerance, asserts its runtime
budget, and prints a single summary line with the measured numbers once all
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
pass/fail checklist.
"""
import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from pairsketch import (
    Block,
    IntRange,
    QueryOne,
    QueryPair,
    UniverseSpec,
    Update,
    create,
    enumerate_distribution,
    replay_noiseless,
    swap_perm,
)
from pairsketch import heavy_edges as he
from pairsketch import pseudosnapshot as ps
from pairsketch import triangle as tri
from pairsketch.harness import (
    ExperimentConfig,
    generate_graph,
    random_script,
    run_experiment,
    write_instance,
)
from pairsketch.heavy_edges import DirectedEdgeStream
from pairsketch.triangle import EdgeStream
from permutation_reference import frame_steps
from snapshot_reference import StackMirror, frame_by_plan

K3 = EdgeStream(3, ((1, 2), (1, 3), (2, 3)))
STAR = DirectedEdgeStream(4, ((3, 1), (3, 2), (3, 4)))


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


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Stream files shared by the heavy/snapshot experiments and criterion 8."""
    root = tmp_path_factory.mktemp("acceptance")
    heavy = []
    for i in range(5):
        stream = random_directed(20, 60, 400 + i)
        path = root / f"heavy{i}.txt"
        write_instance(stream, path)
        heavy.append((path, stream))
    snap_stream = random_directed(12, 30, 30)
    snap_path = root / "snapshot.txt"
    write_instance(snap_stream, snap_path)
    return {"root": root, "heavy": heavy, "snap": (snap_path, snap_stream)}


def _equivalence_config():
    # 324 scripts cycle through all 162 subsets of [8] with 1 <= |T| <= 4 twice
    return ExperimentConfig(
        "equivalence", {"universe": 8, "max_size": 4, "max_len": 5}, 324, 20260815
    )


def _bhm_config():
    return ExperimentConfig(
        "bhm",
        {"meta_trials": 1000},
        200_000,
        71,
        {"kind": "matching", "n": 64, "alpha": "1/4", "b": 1, "seed": 19},
    )


def _triangle_config():
    return ExperimentConfig(
        "triangle", {"k": 2}, 200_000, 52, {"kind": "gnp", "n": 30, "p": 0.3, "seed": 501}
    )


def _heavy_config(files):
    return ExperimentConfig(
        "heavy", {"d_H": 2, "d_T": 1}, 200_000, 63, str(files["heavy"][0][0])
    )


def _snapshot_config(files):
    params = {
        "kappa": 2,
        "eps": "1/2",
        "thresholds": ["-1", "0"],
        "alpha": 3,
        "beta": 1,
        "hash_seed": 7,
    }
    return ExperimentConfig("snapshot", params, 300_000, 123, str(files["snap"][0]))


# -- criterion 1: backend equivalence ------------------------------------------------


def test_criterion_1_backend_equivalence():
    t0 = time.time()
    report = run_experiment(_equivalence_config())
    elapsed = time.time() - t0
    assert report.results["subsets_total"] == 162
    assert report.results["scripts"] >= 200
    assert report.verdicts["every_subset_exercised"]
    assert report.results["max_tv"] <= 1e-9
    assert report.passed
    assert elapsed <= 60
    print(
        f"\nPASS criterion 1: stochastic and quantum backends agree, "
        f"max TV {report.results['max_tv']:.2e} over 324 scripts and "
        f"162 initial sets ({elapsed:.1f}s)"
    )


# -- criterion 2: worked single-query examples ----------------------------------------


def test_criterion_2_worked_examples():
    t0 = time.time()
    eight = UniverseSpec((Block("v", (IntRange(1, 8),)),))

    def vid(v):
        return eight.encode("v", (v,))

    cases = [
        ([2, 3, 4], [QueryOne(vid(4))], {("In",): Fraction(1, 3), ("Bot",): Fraction(2, 3)}),
        ([2, 3], [QueryPair(vid(2), vid(3))], {("Plus",): Fraction(1)}),
        (
            [1, 2, 4],
            [QueryPair(vid(2), vid(3))],
            {
                ("Plus",): Fraction(1, 6),
                ("Minus",): Fraction(1, 6),
                ("Bot",): Fraction(2, 3),
            },
        ),
    ]
    for members, script, want in cases:
        ids = [vid(v) for v in members]
        exact = enumerate_distribution(eight, ids, script)
        assert exact.entries == want
        quantum = enumerate_distribution(eight, ids, script, "quantum")
        for key, p in want.items():
            assert abs(quantum.prob(key) - float(p)) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1
    print(
        f"\nPASS criterion 2: the three worked single-query distributions are "
        f"exact on both backends at 1e-12 ({elapsed:.2f}s)"
    )


# -- criterion 3: reordering lemma ----------------------------------------------------


def test_criterion_3_reordering_lemma():
    t0 = time.time()
    u32 = UniverseSpec((Block("v", (IntRange(1, 32),)),))
    trials = 50_000
    worst_z = 0.0
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([330, i]))
        size = int(rng.integers(2, 17))
        members = sorted(int(x) for x in rng.choice(32, size=size, replace=False))
        script = random_script(u32, rng, 8)
        trace = replay_noiseless(u32, members, script)
        # the lemma's closed form: survival is exactly |T'| / |T|
        assert trace.survival == Fraction(len(trace.survivors), len(members))

        survived = 0
        for t in range(trials):
            handle = create(u32, members, master_seed=900 + i, handle_id=t)
            alive = True
            for op in script:
                if isinstance(op, Update):
                    handle.update(op.perm)
                elif isinstance(op, QueryOne):
                    if handle.query_one(op.x).fires():
                        alive = False
                        break
                elif handle.query_pair(op.x, op.y).fires():
                    alive = False
                    break
            if alive:
                survived += 1
                assert handle.debug_members() == trace.survivors
        p = float(trace.survival)
        sigma = (p * (1 - p) / trials) ** 0.5
        freq = survived / trials
        if sigma == 0:
            assert freq == p
        else:
            assert abs(freq - p) <= 4 * sigma
            worst_z = max(worst_z, abs(freq - p) / sigma)
    elapsed = time.time() - t0
    assert elapsed <= 120
    print(
        f"\nPASS criterion 3: survivor sets deterministic on 20 scripts over "
        f"|U|=32; survival within 4 sigma at 50,000 trials each "
        f"(worst z {worst_z:.2f}, {elapsed:.1f}s)"
    )


# -- criterion 4: hidden-matching error probabilities ---------------------------------


def test_criterion_4_bhm_probabilities():
    t0 = time.time()
    report = run_experiment(_bhm_config())
    elapsed = time.time() - t0
    res = report.results
    assert (res["n"], res["m"]) == (64, 16)
    assert res["alpha"] == Fraction(1, 4)
    assert report.verdicts["exact_correct_prob_is_alpha"]
    assert report.verdicts["exact_wrong_prob_at_most_half_alpha"]
    assert report.verdicts["correct_freq_matches_alpha"]
    assert report.verdicts["wrong_freq_at_most_half_alpha"]
    assert res["majority_copies"] == 192  # 48 / alpha
    assert res["meta_trials"] == 1000
    assert report.verdicts["majority_success_at_least_two_thirds"]
    assert report.passed
    assert elapsed <= 300
    print(
        f"\nPASS criterion 4: correct-output rate {res['freq_correct']:.4f} vs "
        f"alpha 0.25, wrong rate {res['freq_wrong']:.4f} <= 0.125 + 4 sigma at "
        f"200,000 trials; majority success {res['majority_success']:.3f} >= 2/3 "
        f"over 1,000 committees of 192 ({elapsed:.1f}s)"
    )


# -- criterion 5: triangle estimator --------------------------------------------------


def _k3_always_selected_script():
    universe = tri.triangle_universe(K3)
    off = universe.block_offset("scratch")

    def pid(a, b):
        return (a - 1) * 3 + (b - 1)

    ops = []
    for ell, (u, v) in enumerate(K3.edges, start=1):
        for w in range(1, 4):
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


def test_criterion_5_triangle_unbiasedness():
    t0 = time.time()
    # K3 with k=1: the selection pattern is deterministic, so one sketch
    # enumeration gives the whole output law; its mean must be T exactly.
    universe, off, script = _k3_always_selected_script()
    assert len(script) <= 12
    dist = enumerate_distribution(universe, range(off, off + 6), script)
    mean = Fraction(0)
    for key, p in dist.entries.items():
        hit = next((sym for sym in key if sym != "Bot"), None)
        mean += p * (3 if hit == "Plus" else -3 if hit == "Minus" else 0)
    assert mean == tri.oracle_t_split(K3, 1).T_less == 1
    assert abs(float(mean) - 1) <= 1e-9

    lines = []
    trials = 200_000
    for si in range(5):
        stream, _ = generate_graph("gnp", {"n": 30, "p": 0.3}, 500 + si)
        for k in (2, 5):
            oracle = tri.oracle_t_split(stream, k)
            assert oracle.T_less + oracle.T_greater == oracle.T
            outs = tri.sample_outputs(stream, k, 5000 + 10 * si + k, trials)
            assert int(np.max(np.abs(outs))) <= k * stream.m
            target = float(oracle.T_less)
            sample_mean = float(outs.mean())
            sigma = float(outs.std(ddof=1)) / trials**0.5
            assert abs(sample_mean - target) <= 4 * sigma
            lines.append(abs(sample_mean - target) / sigma)

    report = run_experiment(_triangle_config())
    assert report.passed
    elapsed = time.time() - t0
    assert elapsed <= 300
    print(
        f"\nPASS criterion 5: K3 mean exact at k=1; 5 G(30,0.3) streams x "
        f"k in (2,5) within 4 sigma at 200,000 trials (worst z "
        f"{max(lines):.2f}); |X| <= km always; split identity exact "
        f"({elapsed:.1f}s)"
    )


# -- criterion 6: heavy-edge estimator ------------------------------------------------


def _heavy_mirror(stream, d_h, d_t):
    """Member set after each edge on the all-miss path, from degrees alone."""
    universe = he.heavy_universe(stream)
    scratch_off = universe.block_offset("scratch")
    deg = [0] * (stream.n + 1)
    alive = {"H": {}, "T": {}}
    expected = []
    for ell, (u, v) in enumerate(stream.edges, start=1):
        for w in (u, v):
            deg[w] += 1
            alive["H"].setdefault(w, set()).add(deg[w])
            alive["T"].setdefault(w, set()).add(deg[w])
        alive["H"][u].discard(deg[u] - d_h + 1)
        alive["T"][v].discard(deg[v] - d_t + 1)
        members = set(range(scratch_off + 4 * ell, scratch_off + 4 * stream.m))
        for label in ("H", "T"):
            for w, idxs in alive[label].items():
                for a in idxs:
                    members.add(universe.encode("stack", (w, label, deg[w] - a + 1)))
        expected.append(members)
    return expected


def test_criterion_6_heavy_edges(files):
    t0 = time.time()
    # star fixture: the run is one deterministic script, enumerate it exactly
    universe, script = he.build_script(STAR, 2, 1)
    assert len(script) <= 12
    off = universe.block_offset("scratch")
    dist = enumerate_distribution(universe, range(off, off + 12), script)
    mean = Fraction(0)
    for key, p in dist.entries.items():
        hit = next((sym for sym in key if sym != "Bot"), None)
        mean += p * (6 if hit == "Plus" else -6 if hit == "Minus" else 0)
    assert mean == he.oracle_heavy_count(STAR, 2, 1) == 2
    assert abs(float(mean) - 2) <= 1e-9

    trials = 200_000
    zs = []
    full_runs = 0
    for path, stream in files["heavy"]:
        for d_h, d_t in ((2, 1), (3, 2)):
            count = he.oracle_heavy_count(stream, d_h, d_t)
            assert he.terminal_law(stream, d_h, d_t).expect(int) == count
            outs = he.sample_outputs(stream, d_h, d_t, 77 + d_h, trials)
            sample_mean = float(outs.mean())
            sigma = float(outs.std(ddof=1)) / trials**0.5
            assert abs(sample_mean - count) <= 4 * sigma
            zs.append(abs(sample_mean - count) / sigma)

            # 100 instrumented trials per (stream, thresholds): 1,000 in all;
            # runs hold framed ids, so the mirror is framed once per edge
            heavy_universe, heavy_script = he.build_script(stream, d_h, d_t)
            updates = [op.perm for op in heavy_script if isinstance(op, Update)]
            expected = frame_steps(heavy_universe, updates, _heavy_mirror(stream, d_h, d_t))
            for hid in range(100):
                seen = []
                he.run_single(
                    stream, d_h, d_t, 88, handle_id=hid,
                    observer=lambda ell, mem: seen.append((ell, mem)),
                )
                for ell, mem in seen:
                    assert mem == expected[ell - 1]
                full_runs += len(seen) == stream.m
    assert full_runs > 0

    report = run_experiment(_heavy_config(files))
    assert report.passed
    elapsed = time.time() - t0
    assert elapsed <= 300
    print(
        f"\nPASS criterion 6: star mean exact 2 by enumeration; 5 directed "
        f"streams x 2 threshold pairs within 4 sigma at 200,000 trials (worst "
        f"z {max(zs):.2f}); mirror matched every step of 1,000 instrumented "
        f"runs ({full_runs} ran the full stream) ({elapsed:.1f}s)"
    )


# -- criterion 7: pseudosnapshot ------------------------------------------------------


def test_criterion_7_pseudosnapshot(files):
    t0 = time.time()
    report = run_experiment(_snapshot_config(files))
    res = report.results
    assert report.verdicts["law_matches_lemma_oracle"]
    assert report.verdicts["entry_means_match_expectation"]
    assert report.verdicts["bias_within_nonqualifying_bound"]
    assert res["expectation"] == [[0, 1], [1, 0]]
    assert (res["in_class"], res["qualifying"]) == (4, 3)
    assert report.passed

    _, stream = files["snap"]
    grid = ps.DegreeGrid.from_eps(12, "1/2")
    hashes = ps.HashOracles(7, 2, "1/2")
    params = dataclasses.replace(
        ps.SnapshotParams(kappa=2, eps="1/2", thresholds=("-1", "0"), class_pair=(3, 1))
    )
    plan = ps.build_plan(stream, hashes, grid, params)
    assert plan.big_m == res["big_m"] == 7680

    # structural disjointness: each edge's 4 kappa^2 pairs touch 8 kappa^2 slots
    for edge_plan in plan.edge_plans:
        ids = [x for op, _ in edge_plan.queries for x in (op.x, op.y)]
        assert len(ids) == len(set(ids)) == 8 * params.kappa**2

    mirror = StackMirror(stream, hashes, grid, params)
    expected = []
    while mirror.edge_ptr < stream.m:
        k = mirror.step()
        touched = {w for u, v in stream.edges[:k] for w in (u, v)}
        for w in touched:
            mirror.check_stack_form(w)
        expected.append((k, mirror.expected_members()))
    # runs hold framed ids, so the mirror is framed once per edge
    expected = frame_by_plan(plan, expected)

    full_runs = 0
    for t in range(1000):
        snaps = []
        est = ps.run_single(
            stream, hashes, grid, params, 515, handle_id=t, plan=plan,
            observer=lambda k, mem: snaps.append((k, mem)),
        )
        for (k, mem), (k2, want) in zip(snaps, expected):
            assert k == k2
            assert mem == want
        if est.terminated_by == "StreamEnd":
            full_runs += 1
            assert len(snaps) == stream.m
    assert full_runs > 0
    elapsed = time.time() - t0
    assert elapsed <= 600
    print(
        f"\nPASS criterion 7: per-entry means within 4 sigma of the lemma "
        f"expectation [[0,1],[1,0]] at 300,000 trials; bias within the "
        f"non-qualifying bound; stack mirror matched every step of 1,000 "
        f"instrumented runs ({full_runs} full); query pairs structurally "
        f"disjoint ({elapsed:.1f}s)"
    )


# -- criterion 8: deterministic reports ------------------------------------------------


def test_criterion_8_byte_identical_reports(files, tmp_path):
    t0 = time.time()
    configs = {
        "equivalence": _equivalence_config(),
        "bhm": _bhm_config(),
        "triangle": _triangle_config(),
        "heavy": _heavy_config(files),
        "snapshot": _snapshot_config(files),
    }
    for name, config in configs.items():
        out = tmp_path / f"{name}.json"
        config = dataclasses.replace(config, output=str(out))
        run_experiment(config)
        first_json = out.read_bytes()
        first_csv = out.with_suffix(".csv").read_bytes()
        run_experiment(config)
        assert out.read_bytes() == first_json, name
        assert out.with_suffix(".csv").read_bytes() == first_csv, name
        assert b'"schema_version": 1' in first_json
    elapsed = time.time() - t0
    print(
        f"\nPASS criterion 8: all five experiment reports byte-identical on "
        f"rerun with the same master seed ({elapsed:.1f}s)"
    )
