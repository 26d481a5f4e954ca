"""The exact ``Law`` type, ``replay_law``, and the samplers built on them."""
import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsketch import (
    Block,
    CyclicShift,
    IntRange,
    InvalidParamsError,
    InvariantError,
    PermutationSpec,
    QueryGroup,
    QueryOne,
    QueryPair,
    ScriptError,
    UniverseSpec,
    Update,
    enumerate_distribution,
    swap_perm,
)
from pairsketch import bhm, heavy_edges, triangle
from pairsketch import pseudosnapshot as ps
from pairsketch import sketch
from pairsketch.harness import ExperimentConfig, random_script, run_experiment
from pairsketch.sketch import Law, Tape, replay_law, replay_noiseless, script_items
from tape_reference import build_script, tagged_script
from test_live_tapes import _directed, _gnp
from test_universe import universes

EIGHT = UniverseSpec((Block("v", (IntRange(0, 7),)),))


def test_law_needs_mass_exactly_one():
    with pytest.raises(InvariantError, match="mass 1/2"):
        Law({"a": Fraction(1, 2)})
    with pytest.raises(InvariantError):
        Law({"a": Fraction(1, 2), "b": Fraction(1, 2) + Fraction(1, 10**30)})
    Law({"a": Fraction(1, 3), "b": Fraction(2, 3)})


def test_expect_is_exact():
    law = Law({3: Fraction(1, 3), -3: Fraction(1, 6), 0: Fraction(1, 2)})
    assert law.expect(int) == Fraction(1, 2)
    assert law.expect(lambda x: x * x) == Fraction(9, 2)
    assert law.expect(lambda x: x == 0) == Fraction(1, 2)


def test_sample_indexes_atoms_in_insertion_order():
    law = Law({"late": Fraction(0), "a": Fraction(1, 4), "b": Fraction(3, 4)})
    idx = law.sample(np.random.default_rng(3), 40_000)
    assert set(np.unique(idx)) == {1, 2}
    assert abs(float(np.mean(idx == 1)) - 0.25) < 0.02
    assert law.sample(np.random.default_rng(3), 0).shape == (0,)


class _TopDraw:
    """An rng stub whose every uniform draw is the largest float below 1."""

    def random(self, trials, out=None):
        if out is None:
            return np.full(trials, 1 - 2**-53)
        out[:] = 1 - 2**-53
        return out


def test_sample_never_lands_on_a_trailing_zero_atom():
    # ten tenths sum to 1 - 2**-53 in floats, so an unpinned bound at the tenth
    # atom would send the top draw to the zero-mass abort after it
    law = Law({**{k: Fraction(1, 10) for k in range(10)}, "abort": Fraction(0)})
    assert np.cumsum([0.1] * 10)[-1] < 1
    assert law.sample(_TopDraw(), 3).tolist() == [9, 9, 9]
    # a perfect matching queries every cell away: bhm's no-hit atom has mass 0
    slabs = bhm.terminal_slabs(bhm.generate_instance(6, Fraction(1, 2), 0, seed=0))
    probs = list(slabs.atoms.values())
    assert probs[-1] == 0 and np.cumsum([float(p) for p in probs])[-2] < 1
    assert slabs.sample(_TopDraw(), 2).tolist() == [len(probs) - 2] * 2


def test_replay_law_keys_and_merges_in_first_appearance_order():
    ops = [
        (Update(swap_perm(EIGHT, (0, 5))), "ignored"),
        (QueryPair(5, 6), "pair"),
        (QueryOne(1), "one"),
        (QueryOne(3), "one"),
    ]
    law = replay_law(Tape(
        EIGHT, [0, 1, 2, 3], script_items(EIGHT, ops), lambda tag, out: (tag, out.value), "end"
    ))
    assert list(law.atoms) == [("pair", "Plus"), ("pair", "Minus"), ("one", "In"), "end"]
    assert law.atoms[("pair", "Plus")] == law.atoms[("pair", "Minus")] == Fraction(1, 8)
    # both single queries fire with 1/|T0| each: they merge under one key
    assert law.atoms[("one", "In")] == Fraction(2, 4)
    assert law.atoms["end"] == Fraction(1, 4)


def test_replay_law_checks_each_op_universe_as_the_handle_does():
    other = UniverseSpec((Block("w", (IntRange(0, 7),)),))

    def key(tag, out):
        return tag, out.value

    for item in (((swap_perm(other, (0, 1)), None),), ((QueryGroup(other, [1]), ("q",)),)):
        with pytest.raises(ScriptError, match="universe does not match"):
            replay_law(Tape(EIGHT, [0, 1], [item], key, "end"))
    twin = UniverseSpec(EIGHT.blocks)  # equal, not the same object
    law = replay_law(Tape(EIGHT, [0, 1], [((QueryGroup(twin, [1]), ("q",)),)], key, "end"))
    assert law.atoms == {("q", "In"): Fraction(1, 2), "end": Fraction(1, 2)}


@pytest.mark.parametrize("tags", [("a",), ("a", "b", "c")])
def test_replay_law_needs_one_tag_per_query(tags):
    # a short tag tuple would drop the group's later queries from the law
    items = [((QueryGroup(EIGHT, [0, 1]), tags),)]
    with pytest.raises(ScriptError, match="a group of 2 queries carries"):
        replay_law(Tape(EIGHT, [0, 1], items, lambda t, o: t, "end"))


@pytest.mark.parametrize("seed", range(20))
def test_replay_law_matches_the_quantum_first_hit_law(seed):
    rng = np.random.default_rng(seed)
    members = sorted(int(x) for x in rng.choice(8, size=int(rng.integers(1, 6)), replace=False))
    script = random_script(EIGHT, rng, 8)
    tagged = [(op, k) for k, op in enumerate(script)]
    law = replay_law(Tape(
        EIGHT, members, script_items(EIGHT, tagged), lambda k, out: (k, out.value), "end"
    ))
    quantum = enumerate_distribution(EIGHT, members, script, "quantum")
    queries = [k for k, op in enumerate(script) if not isinstance(op, Update)]
    for key, p in law.atoms.items():
        seq = ("Bot",) * len(queries) if key == "end" else (
            ("Bot",) * queries.index(key[0]) + (key[1],)
        )
        assert abs(quantum.prob(seq) - float(p)) <= 1e-9, (key, seq)


BHM = bhm.generate_instance(8, Fraction(1, 4), 1, seed=5)
HEAVY = heavy_edges.DirectedEdgeStream(4, ((3, 1), (3, 2), (3, 4)))
TRIANGLE = triangle.EdgeStream(3, ((1, 2), (1, 3), (2, 3)))


SNAPSHOT = (
    heavy_edges.DirectedEdgeStream(3, ((1, 2), (2, 3))),
    ps.HashOracles(0, 1, "1/2"),
    ps.DegreeGrid.from_eps(3, "1/2"),
    ps.SnapshotParams(kappa=1, eps="1/2", thresholds=("-1",), class_pair=(0, 0)),
)


def _snapshot_law():
    return ps.terminal_law(*SNAPSHOT)


BHM_LAW = bhm.terminal_slabs(BHM)
THIRDS = Law({k: Fraction(1, 3) for k in range(3)})


HEAVY_PARAMS = heavy_edges.HeavyParams(1, 1, 0.5)


def _triangle_params(repetitions):
    return triangle.TriangleParams(2, 1.0, 1.0, 0.5, 0.5, repetitions=repetitions)


def _snapshot_params(**counts):
    return dataclasses.replace(SNAPSHOT[3], **counts)


def _snapshot_estimate(estimate, copies):
    return estimate(*SNAPSHOT, copies=copies)


TRIALS = "trials must be >= 0"
# each path with a negative count: (the message it raises, the call)
NEGATIVE_TRIALS = {
    "bhm.sample_outputs": (TRIALS, lambda: bhm.sample_outputs(BHM, 1, -1)),
    "bhm.sample_majority": (TRIALS, lambda: bhm.sample_majority(BHM, 1, -2, copies=3)),
    "heavy_edges.sample_outputs": (
        TRIALS, lambda: heavy_edges.sample_outputs(HEAVY, 2, 1, 0, -1)),
    "triangle.sample_outputs": (TRIALS, lambda: triangle.sample_outputs(TRIANGLE, 2, 0, -1)),
    "SnapshotLaw.sample": (TRIALS, lambda: _snapshot_law().sample(0, -1)),
    "bhm.sample_counts": (TRIALS, lambda: bhm.sample_counts(BHM, 1, -1)),
    "heavy_edges.sample_counts": (TRIALS, lambda: heavy_edges.sample_counts(HEAVY, 2, 1, 0, -1)),
    "triangle.sample_counts": (TRIALS, lambda: triangle.sample_counts(TRIANGLE, 2, 0, -1)),
    "SnapshotLaw.entry_sums": (TRIALS, lambda: _snapshot_law().entry_sums(0, -1)),
    "Law.draw_counts": (TRIALS, lambda: THIRDS.draw_counts(np.random.default_rng(0), -1)),
    "Law.draw_counts.groups": (
        "groups must be >= 0", lambda: THIRDS.draw_counts(np.random.default_rng(0), 2, -1)),
    "heavy_edges.estimate": (
        "copies must be >= 1", lambda: heavy_edges.estimate(HEAVY, HEAVY_PARAMS, 0, copies=-1)),
    "heavy_edges.estimate_sampled": ("copies must be >= 1", lambda: heavy_edges.estimate_sampled(
        HEAVY, HEAVY_PARAMS, 0, copies=-1)),
    "pseudosnapshot.estimate": (
        "copies must be >= 1", lambda: _snapshot_estimate(ps.estimate, -1)),
    "pseudosnapshot.estimate_sampled": (
        "copies must be >= 1", lambda: _snapshot_estimate(ps.estimate_sampled, -1)),
    "SnapshotParams.copies": ("copies must be >= 1", lambda: _snapshot_params(copies=-1)),
    "SnapshotParams.capacity_c": (
        "capacity_c must be >= 1", lambda: _snapshot_params(capacity_c=-1)),
    "TriangleParams.repetitions.copies": (
        "copies per group must be >= 1", lambda: _triangle_params((-1, 1))),
    "TriangleParams.repetitions.groups": ("groups must be >= 1", lambda: _triangle_params((1, -1))),
    "triangle.run_single": ("k must be >= 1", lambda: triangle.run_single(TRIANGLE, -1, 0)),
    "triangle.oracle_t_split": ("k must be >= 1", lambda: triangle.oracle_t_split(TRIANGLE, -2)),
    "heavy_edges.terminal_law": (
        "d_H must be >= 1", lambda: heavy_edges.terminal_law(HEAVY, -1, 1)),
    "heavy_edges.oracle_heavy_count": (
        "d_T must be >= 1", lambda: heavy_edges.oracle_heavy_count(HEAVY, 1, -1)),
    "HeavyParams.d_T": ("d_T must be >= 1", lambda: heavy_edges.HeavyParams(1, -1, 0.5)),
    "HashOracles.seed": ("seed must be >= 0", lambda: ps.HashOracles(-1, 1, "1/2")),
    "HashOracles.kappa": ("kappa must be >= 1", lambda: ps.HashOracles(0, -1, "1/2")),
    "SnapshotParams.kappa": ("kappa must be >= 1", lambda: _snapshot_params(kappa=-1)),
    "SnapshotParams.class_pair": (
        "beta must be >= 0", lambda: _snapshot_params(class_pair=(0, -1))),
    "bhm.generate_instance": ("n must be >= 0", lambda: bhm.generate_instance(-4, "1/4", 1, 0)),
}


@pytest.mark.parametrize("message, call", NEGATIVE_TRIALS.values(), ids=NEGATIVE_TRIALS.keys())
def test_samplers_reject_negative_trial_counts(message, call):
    with pytest.raises(InvalidParamsError, match=f"{message}, got -"):
        call()


# each sampling and counting path, with ``n`` in the place of one count
COUNTED = {
    "Law.sample": ("trials", lambda n: THIRDS.sample(np.random.default_rng(0), n)),
    "Law.draw_counts": ("trials", lambda n: THIRDS.draw_counts(np.random.default_rng(0), n)),
    "Law.draw_counts.groups": (
        "groups", lambda n: THIRDS.draw_counts(np.random.default_rng(0), 4, n)),
    "bhm.sample_outputs": ("trials", lambda n: bhm.sample_outputs(BHM, 1, n)),
    "bhm.sample_counts": ("trials", lambda n: bhm.sample_counts(BHM, 1, n)),
    "bhm.sample_majority.meta_trials": (
        "meta_trials", lambda n: bhm.sample_majority(BHM, 1, n, copies=3)),
    "bhm.sample_majority.copies": ("copies", lambda n: bhm.sample_majority(BHM, 1, 4, copies=n)),
    "heavy_edges.sample_outputs": (
        "trials", lambda n: heavy_edges.sample_outputs(HEAVY, 2, 1, 0, n)),
    "heavy_edges.sample_counts": (
        "trials", lambda n: heavy_edges.sample_counts(HEAVY, 2, 1, 0, n)),
    "triangle.sample_outputs": ("trials", lambda n: triangle.sample_outputs(TRIANGLE, 2, 0, n)),
    "triangle.sample_counts": ("trials", lambda n: triangle.sample_counts(TRIANGLE, 2, 0, n)),
    "SnapshotLaw.sample": ("trials", lambda n: _snapshot_law().sample(0, n)),
    "SnapshotLaw.entry_sums": ("trials", lambda n: _snapshot_law().entry_sums(0, n)),
    "heavy_edges.estimate": (
        "copies", lambda n: heavy_edges.estimate(HEAVY, HEAVY_PARAMS, 0, copies=n)),
    "heavy_edges.estimate_sampled": (
        "copies", lambda n: heavy_edges.estimate_sampled(HEAVY, HEAVY_PARAMS, 0, copies=n)),
    "pseudosnapshot.estimate": ("copies", lambda n: _snapshot_estimate(ps.estimate, n)),
    "pseudosnapshot.estimate_sampled": (
        "copies", lambda n: _snapshot_estimate(ps.estimate_sampled, n)),
    "SnapshotParams.copies": ("copies", lambda n: _snapshot_params(copies=n).copies),
    "SnapshotParams.capacity_c": (
        "capacity_c", lambda n: _snapshot_params(capacity_c=n).capacity_c),
    "TriangleParams.repetitions.copies": (
        "copies per group", lambda n: triangle.estimate(TRIANGLE, _triangle_params((n, 2)))),
    "TriangleParams.repetitions.groups": (
        "groups", lambda n: triangle.estimate_sampled(TRIANGLE, _triangle_params((2, n)))),
    "triangle.run_single": ("k", lambda n: triangle.run_single(TRIANGLE, n, 0)),
    "triangle.terminal_law": ("k", lambda n: triangle.terminal_law(TRIANGLE, n)),
    "triangle.oracle_t_split": ("k", lambda n: triangle.oracle_t_split(TRIANGLE, n)),
    "TriangleParams.k": ("k", lambda n: triangle.TriangleParams(n, 1.0, 1.0, 0.5, 0.5).k),
    "heavy_edges.run_single": ("d_H", lambda n: heavy_edges.run_single(HEAVY, n, 1, 0)),
    "heavy_edges.terminal_law": ("d_T", lambda n: heavy_edges.terminal_law(HEAVY, 1, n)),
    "heavy_edges.oracle_heavy_count.d_H": (
        "d_H", lambda n: heavy_edges.oracle_heavy_count(HEAVY, n, 1)),
    "heavy_edges.oracle_heavy_count.d_T": (
        "d_T", lambda n: heavy_edges.oracle_heavy_count(HEAVY, 1, n)),
    "HeavyParams.d_H": ("d_H", lambda n: heavy_edges.HeavyParams(n, 1, 0.5).d_H),
    "HeavyParams.d_T": ("d_T", lambda n: heavy_edges.HeavyParams(1, n, 0.5).d_T),
    "HashOracles.seed": ("seed", lambda n: ps.HashOracles(n, 1, "1/2").seed),
    "HashOracles.kappa": ("kappa", lambda n: ps.HashOracles(0, n, "1/2").kappa),
    "SnapshotParams.kappa": ("kappa", lambda n: _snapshot_params(kappa=n).kappa),
    "SnapshotParams.class_pair.alpha": (
        "alpha", lambda n: _snapshot_params(class_pair=(n, 0)).class_pair),
    "SnapshotParams.class_pair.beta": (
        "beta", lambda n: _snapshot_params(class_pair=(0, n)).class_pair),
    "bhm.generate_instance": ("n", lambda n: bhm.generate_instance(n, "1/5", 1, 0).n),
}


@pytest.mark.parametrize("bad", [2.5, 3.0, True, np.bool_(False), "3", np.float64(2)])
@pytest.mark.parametrize("name", COUNTED)
def test_samplers_reject_non_integer_counts(name, bad):
    field, call = COUNTED[name]
    with pytest.raises(InvalidParamsError, match=f"{field} must be an integer, got "):
        call(bad)


@pytest.mark.parametrize("name", COUNTED)
def test_samplers_take_numpy_integer_counts(name):
    field, call = COUNTED[name]
    assert np.array_equal(call(np.int64(5)), call(5))


def test_count_params_refuse_a_bool_and_keep_numpy_integers_as_int():
    # True is no copy count: both heavy estimates and the snapshot params refuse it
    for call in (heavy_edges.estimate, heavy_edges.estimate_sampled):
        with pytest.raises(InvalidParamsError, match="copies must be an integer, got True"):
            call(HEAVY, HEAVY_PARAMS, 0, copies=True)
    with pytest.raises(InvalidParamsError, match="copies must be an integer, got True"):
        _snapshot_params(copies=True)
    with pytest.raises(InvalidParamsError, match="copies per group must be an integer"):
        _triangle_params((True, 1))
    assert type(_snapshot_params(copies=np.int64(3)).copies) is int
    assert _triangle_params((np.int64(3), np.int64(2))).repetitions == (3, 2)
    assert type(ps.HashOracles(np.int64(3), np.int64(2), "1/2").kappa) is int
    assert _snapshot_params(class_pair=(np.int64(1), np.int64(0))).class_pair == (1, 0)
    assert type(dataclasses.replace(BHM, n=np.int64(8)).n) is int


@pytest.mark.parametrize("shape", [(1, 2, 3), (4,), 4, None, "abc"])
def test_pairs_of_counts_must_be_pairs(shape):
    # a wrong shape raises InvalidParamsError, not a bare ValueError or TypeError
    if shape is not None:
        with pytest.raises(InvalidParamsError, match="repetitions must be"):
            _triangle_params(shape)
    with pytest.raises(InvalidParamsError, match="class_pair must be"):
        _snapshot_params(class_pair=shape)


# -- per-atom counts: one multinomial draw ---------------------------------------

ZERO_ENDS = Law({"first": Fraction(0), "a": Fraction(1, 3), "mid": Fraction(0),
                 "b": Fraction(2, 3), "last": Fraction(0), "later": Fraction(0)})
TENTHS = Law({**{k: Fraction(1, 10) for k in range(10)}, "abort": Fraction(0)})


@pytest.mark.parametrize("trials", [0, 1, 16383, 16384, 16385, 49159, 10**15])
@pytest.mark.parametrize(
    "law", [THIRDS, BHM_LAW, ZERO_ENDS, TENTHS], ids=["thirds", "bhm", "zero-ends", "tenths"])
def test_draw_counts_sum_to_trials_and_skip_zero_mass_atoms(law, trials):
    got = law.draw_counts(np.random.default_rng(11), trials)
    assert got.dtype == np.int64 and got.shape == (len(law.atoms),)
    assert got.sum() == trials and got.min() >= 0
    zero = np.array([p == 0 for p in law.atoms.values()])
    assert not got[zero].any()
    groups = law.draw_counts(np.random.default_rng(11), trials, 3)
    assert groups.shape == (3, len(law.atoms)) and (groups.sum(axis=1) == trials).all()
    assert not groups[:, zero].any()


def _within_five_sigma(counts, law, trials):
    """Whether each atom's count lies within five sigma of its binomial mean,
    give or take the one draw a whole count may round to."""
    return all(
        abs(count - trials * float(p)) <= 5 * (trials * float(p) * (1 - float(p)))**0.5 + 1
        for count, p in zip(counts.tolist(), law.atoms.values())
    )


@pytest.mark.parametrize("trials", [0, 1, 16383, 16384, 16385, 49159])
@pytest.mark.parametrize("law", [THIRDS, BHM_LAW], ids=["thirds", "bhm"])
def test_counts_equal_the_bincount_of_one_draw_array(law, trials):
    # equal in law: the multinomial counts and the bincount of one array of
    # ``sample`` draws (the path of every ``sample_outputs``) both sum to
    # ``trials``, leave the zero-mass atoms empty and sit near each atom's mean
    got = law.draw_counts(np.random.default_rng(11), trials)
    want = np.bincount(law.sample(np.random.default_rng(11), trials), minlength=len(law.atoms))
    assert got.dtype == np.int64 and got.shape == want.shape
    assert got.sum() == want.sum() == trials
    zero = np.array([p == 0 for p in law.atoms.values()])
    assert not got[zero].any() and not want[zero].any()
    assert _within_five_sigma(got, law, trials) and _within_five_sigma(want, law, trials)


@pytest.mark.parametrize("trials", [1, 16383, 16384, 16385, 49159])
def test_counts_of_top_draws_skip_a_trailing_zero_atom(trials):
    # the largest uniform lands on the last positive atom, never on the
    # zero-mass atom after it; the multinomial counts leave that atom empty too
    drawn = np.bincount(TENTHS.sample(_TopDraw(), trials), minlength=11)
    assert drawn.tolist() == [0] * 9 + [trials, 0]
    got = TENTHS.draw_counts(np.random.default_rng(trials), trials)
    assert got.sum() == trials and got[-1] == 0


@pytest.mark.parametrize("unit", [1, 7, 16383, 16384, 16387])
def test_blocks_hold_whole_units(unit):
    # a block of grouped counts: each of its rows is one group of ``unit`` draws
    got = THIRDS.draw_counts(np.random.default_rng(2), unit, 5)
    assert got.shape == (5, 3) and (got.sum(axis=1) == unit).all()


def test_equal_rng_states_draw_equal_counts():
    for law in (THIRDS, BHM_LAW, ZERO_ENDS):
        a = law.draw_counts(np.random.default_rng(7), 10**5)
        assert np.array_equal(a, law.draw_counts(np.random.default_rng(7), 10**5))
        # a group is one draw: the rows are successive draws from one generator
        rng = np.random.default_rng(7)
        rows = np.stack([law.draw_counts(rng, 500) for _ in range(4)])
        assert np.array_equal(law.draw_counts(np.random.default_rng(7), 500, 4), rows)


def test_counts_follow_the_law():
    # 10**6 draws: each atom's count within five sigma of its binomial mean
    trials = 10**6
    got = BHM_LAW.draw_counts(np.random.default_rng(3), trials)
    for count, p in zip(got.tolist(), BHM_LAW.atoms.values()):
        mean, var = trials * float(p), trials * float(p) * (1 - float(p))
        assert abs(count - mean) <= 5 * var**0.5 + 1e-9


def test_a_huge_draw_holds_one_count_per_atom():
    # 10**15 draws of a 2000-atom law: the cost grows with the atoms, not the draws
    law = Law({k: Fraction(1, 2000) for k in range(2000)})
    law.draw_counts(np.random.default_rng(0), 1)  # the float probabilities, once
    tracemalloc.start()
    try:
        got = law.draw_counts(np.random.default_rng(0), 10**15, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (got.sum(axis=1) == 10**15).all()
    assert peak < 200_000  # two rows of 2000 int64 counts, and the draw's own row


# -- sampled estimates, from per-atom counts ---------------------------------------

# floats the sampled estimates return from their multinomial per-atom counts:
# heavy_edges.estimate_sampled on _directed(8, 20, 2) at seed 5 and eps 1/2,
# keyed (d_H, d_T, copies)
SAMPLED_HEAVY = {
    (1, 1, 75): "0x1.3333333333333p+4",
    (1, 1, 16385): "0x1.4176fa24176fap+4",
    (2, 1, 16384): "0x1.00fe000000000p+4",
    (2, 1, 100003): "0x1.0070b7f222ad4p+4",
    (3, 2, 100003): "0x1.80cec2874ffadp+3",
}
# triangle.estimate_sampled on _gnp() at master seed 3, keyed (k, copies, groups)
SAMPLED_TRIANGLE = {
    (1, 1000, 1): "-0x1.f9db22d0e5604p-2",
    (1, 7, 9): "0x0.0p+0",
    (1, 16385, 3): "0x1.1cfb8c11cfb8cp-6",
    (2, 40000, 1): "0x1.e37b4a2339c0fp-1",
    (5, 16385, 3): "0x1.54a4ad6d4a4adp+1",
    (5, 1000, 1): "0x1.0b851eb851eb8p+1",
}


@pytest.mark.parametrize("key", SAMPLED_HEAVY)
def test_sampled_heavy_estimates_are_pinned(key):
    d_h, d_t, copies = key
    params = heavy_edges.HeavyParams(d_h, d_t, 0.5)
    got = heavy_edges.estimate_sampled(_directed(8, 20, 2), params, 5, copies=copies)
    assert got == float.fromhex(SAMPLED_HEAVY[key])


@pytest.mark.parametrize("key", SAMPLED_TRIANGLE)
def test_sampled_triangle_estimates_are_pinned(key):
    k, copies, groups = key
    params = triangle.TriangleParams(k, 10.0, 5.0, 0.5, 0.1, repetitions=(copies, groups))
    got = triangle.estimate_sampled(_gnp(), params, master_seed=3)
    assert got == float.fromhex(SAMPLED_TRIANGLE[key])


def test_sampled_estimates_run_in_bounded_memory():
    # 2 * 10**6 runs each, drawn as per-atom counts: no array of one entry per
    # run, nor of one entry per copy of a group
    heavy, gnp = _directed(8, 20, 2), _gnp()
    heavy_edges.terminal_law(heavy, 2, 1)
    triangle.terminal_law(gnp, 2)
    tracemalloc.start()
    try:
        heavy_edges.estimate_sampled(heavy, heavy_edges.HeavyParams(2, 1, 0.5), 5, copies=2_000_000)
        for repetitions in ((2_000_000, 1), (1000, 2000)):
            params = triangle.TriangleParams(2, 10.0, 5.0, 0.5, 0.1, repetitions=repetitions)
            triangle.estimate_sampled(gnp, params, master_seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# -- where a sampled draw lands -----------------------------------------------------


class _Uniforms:
    """An rng stub that hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, trials):
        assert trials == len(self.u)
        return self.u.copy()


@st.composite
def weighted_laws(draw):
    """Laws of 1 to 2000 atoms, some with zero-mass runs at the start, in the
    middle or at the end, some with one dominant atom."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(0, draw(st.sampled_from([1, 3, 10**6])) + 1, size=n).tolist()
    for where in draw(st.sets(st.sampled_from(["start", "middle", "end"]))):
        run = draw(st.integers(1, max(1, n // 3)))
        start = {"start": 0, "middle": (n - run) // 2, "end": n - run}[where]
        weights[start:start + run] = [0] * run
    if draw(st.booleans()):
        weights[int(rng.integers(n))] = 10**15
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    total = sum(weights)
    return Law({k: Fraction(w, total) for k, w in enumerate(weights)})


@settings(max_examples=60, deadline=None)
@given(weighted_laws())
def test_draws_on_and_beside_every_bound_land_on_positive_atoms(law):
    cum = np.cumsum([float(p) for p in law.atoms.values()])
    u = np.sort(np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 1), [0.0]]))
    u = u[u < 1]
    idx = law.sample(_Uniforms(u), len(u))
    positive = np.array([p > 0 for p in law.atoms.values()])
    assert positive[idx].all() and (np.diff(idx) >= 0).all()
    # a draw lands on the first atom whose cumulative bound lies above it
    inner = u < cum[np.flatnonzero(positive)[-1]]
    at, lower = idx[inner], np.concatenate([[0.0], cum])[idx[inner]]
    assert ((lower <= u[inner]) & (u[inner] < cum[at])).all()


def _guide_table_sample(law, u):
    """The reference draw path of an earlier ``Law.sample``: a guide table of a
    power of two cells, at least eight per atom, answers each uniform whose
    cell holds no cumulative bound, and a search over the pinned bounds the rest."""
    probs = list(law.atoms.values())
    cum = np.cumsum([float(p) for p in probs])
    cum[max(k for k, p in enumerate(probs) if p):] = 1.0
    cells = 1 << (8 * len(cum) - 1).bit_length()
    edges = np.arange(cells + 1) / cells
    lo = np.searchsorted(cum, edges[:-1], side="right")
    hi = np.searchsorted(cum, edges[1:], side="left")
    table = np.where(lo == hi, lo, -1)
    idx = table[(u * cells).astype(np.intp)]
    miss = idx < 0
    idx[miss] = np.searchsorted(cum, u[miss], side="right")
    return idx, cum, cells


@settings(max_examples=60, deadline=None)
@given(weighted_laws(), st.sampled_from([0, 1, 10**5]), st.integers(0, 2**32 - 1))
def test_guide_table_draws_match_one_search_per_draw(law, trials, seed):
    # ``sample`` is one search per draw; it lands every uniform where the
    # guide table did, so the draws of ``sample_outputs`` keep their indices
    got = law.sample(np.random.default_rng(seed), trials)
    want, cum, cells = _guide_table_sample(law, np.random.default_rng(seed).random(trials))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # draws on and beside every bound and every cell edge
    edges = np.arange(cells) / cells
    u = np.concatenate([edges, cum, np.nextafter(cum, 0), np.nextafter(edges[1:], 0), [0.0]])
    u = u[(u >= 0) & (u < 1)]
    assert np.array_equal(law.sample(_Uniforms(u), len(u)), _guide_table_sample(law, u)[0])


@settings(max_examples=60, deadline=None)
@given(weighted_laws(), st.sampled_from([1, 10**5, 10**15]), st.integers(0, 2**32 - 1))
def test_draw_counts_of_any_law_skip_its_zero_mass_atoms(law, trials, seed):
    got = law.draw_counts(np.random.default_rng(seed), trials)
    positive = np.array([p > 0 for p in law.atoms.values()])
    assert got.sum() == trials and got.min() >= 0 and not got[~positive].any()


# -- integer replay against the per-atom Fraction sum ---------------------------


def _fraction_replay_law(universe, members, tagged_ops, key, end_key):
    """The reference summation: one Fraction per fire atom, added in replay order."""
    ops = list(tagged_ops)
    trace = replay_noiseless(universe, members, [op for op, _ in ops])
    tags = [tag for op, tag in ops if not isinstance(op, Update)]
    atoms = {}
    for tag, step in zip(tags, trace.steps):
        size = trace.steps[0].size_before
        for outcome, p in sketch.fire_probs(step.kind == "pair", step.present_count, size):
            atom = key(tag, outcome)
            atoms[atom] = atoms[atom] + p if atom in atoms else p
    atoms[end_key] = atoms.get(end_key, 0) + trace.survival
    return atoms


def _same_atoms(law, atoms):
    """Keys, order and Fractions all agree."""
    assert list(law.atoms.items()) == list(atoms.items())
    assert all(type(p) is Fraction for p in law.atoms.values())


@st.composite
def universe_scripts(draw):
    """(universe, members, script) with swaps, whole-block shifts and both query kinds."""
    u = draw(universes().filter(lambda u: u.size >= 2))
    ids = st.integers(0, u.size - 1)
    pairs = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])

    def shift(block, amount):
        stage = CyclicShift(block.name, amount, (None,) * (len(block.factors) - 1))
        return Update(PermutationSpec(u, (stage,)))

    ops = st.one_of(
        pairs.map(lambda p: Update(swap_perm(u, p))),
        st.builds(shift, st.sampled_from(u.blocks), st.integers(-3, 3)),
        st.builds(QueryOne, ids),
        pairs.map(lambda p: QueryPair(*p)),
    )
    members = draw(st.sets(ids, min_size=1, max_size=min(u.size, 12)))
    return u, sorted(members), draw(st.lists(ops, max_size=12))


@settings(max_examples=200, deadline=None)
@given(universe_scripts(), st.integers(1, 4), st.sampled_from(["end", (0, "Plus")]))
def test_integer_replay_law_matches_the_fraction_sum(case, fold, end_key):
    universe, members, script = case
    tagged = [(op, k) for k, op in enumerate(script)]

    def key(k, out):  # folding tags makes atoms of different queries merge
        return k % fold, out.value

    law = replay_law(Tape(universe, members, script_items(universe, tagged), key, end_key))
    _same_atoms(law, _fraction_replay_law(universe, members, tagged, key, end_key))


def test_estimator_laws_match_the_fraction_sum():
    inst = bhm.generate_instance(32, Fraction(1, 4), 1, seed=3, interleaving="shuffle")
    tape = inst._tape
    _same_atoms(bhm.terminal_slabs(inst), _fraction_replay_law(
        tape.universe, tape.members, build_script(inst),
        lambda tag, out: bhm._output(inst, tag, out), (None, None)))

    stream = heavy_edges.DirectedEdgeStream(5, ((1, 2), (3, 2), (2, 4), (4, 1), (2, 5), (5, 1)))
    m = stream.m
    tape = heavy_edges._framed_edges(stream, 2, 1)
    _same_atoms(heavy_edges.terminal_law(stream, 2, 1), _fraction_replay_law(
        tape.universe, tape.members, tagged_script(tape), lambda _, o: o.sign * 2 * m, 0))

    stream, hashes, grid, params = SNAPSHOT
    plan = ps.build_plan(stream, hashes, grid, params)
    tagged = tagged_script(eplan.item for eplan in plan.edge_plans)
    atoms = _fraction_replay_law(plan.universe, plan.initial_members(), tagged,
                                 ps._FireKey(stream, hashes, grid, params, plan.big_m),
                                 ps._end_key(plan))
    _same_atoms(_snapshot_law().law, dict(sorted(atoms.items(), key=lambda a: repr(a[0]))))


def test_a_fire_law_row_off_its_mass_raises(monkeypatch):
    from pairsketch import sketch

    bad = dict(sketch.FIRE_LAW)
    scale, atoms = bad[True, 2]
    bad[True, 2] = (scale, ((atoms[0][0], 3),))
    monkeypatch.setattr(sketch, "FIRE_LAW", bad)
    with pytest.raises(InvariantError, match=r"\(True, 2\)"):
        replay_noiseless(EIGHT, [0, 1, 2], [QueryPair(0, 1)])


def test_a_store_that_skips_a_deletion_raises(monkeypatch):
    from pairsketch import sketch

    take = sketch._MemberStore.take

    def forgetful(self, x, y=None):
        size, px, py = take(self, x, y)
        if px:
            self.ids.add(x)  # reports x present but keeps it
        return size, px, py

    monkeypatch.setattr(sketch._MemberStore, "take", forgetful)
    with pytest.raises(InvariantError, match="meets 3 members, not the 2 left"):
        replay_noiseless(EIGHT, [0, 1, 2], [QueryOne(0), QueryOne(1)])
    with pytest.raises(InvariantError, match="survivors"):
        replay_noiseless(EIGHT, [0, 1, 2], [QueryOne(0)])


# -- one law per instance ---------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


EXPERIMENTS = {
    "bhm": (bhm, "replay_law", ExperimentConfig(
        "bhm", {"meta_trials": 20, "copies": 5}, 500, 3,
        {"kind": "matching", "n": 16, "alpha": "1/4", "b": 1})),
    "heavy": (heavy_edges, "replay_law", ExperimentConfig(
        "heavy", {"d_H": 2, "d_T": 2}, 500, 3, {"kind": "star", "n": 6})),
    "triangle": (triangle, "_build_law", ExperimentConfig(
        "triangle", {"k": 2}, 500, 3, {"kind": "planted-triangles", "n": 9, "t": 2})),
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_each_experiment_builds_its_law_once(monkeypatch, name):
    module, law_fn, config = EXPERIMENTS[name]
    calls = _count_calls(monkeypatch, module, law_fn)
    first = run_experiment(config)
    assert len(calls) == 1
    # the next experiment parses its instance afresh: nothing carries over
    assert run_experiment(config) == first
    assert len(calls) == 2


def test_a_law_is_kept_per_instance_and_parameter(monkeypatch):
    calls = _count_calls(monkeypatch, heavy_edges, "replay_law")
    edges = ((1, 2), (3, 2), (2, 4), (4, 1), (2, 5), (5, 1))
    stream = heavy_edges.DirectedEdgeStream(5, edges)
    law = heavy_edges.terminal_law(stream, 2, 1)
    other = heavy_edges.terminal_law(stream, 1, 2)
    assert len(calls) == 2 and law != other
    heavy_edges.sample_outputs(stream, 2, 1, 0, 1000)
    assert heavy_edges.terminal_law(stream, 2, 1) is law and len(calls) == 2
    # the kept law is the one a fresh instance builds
    assert heavy_edges.terminal_law(heavy_edges.DirectedEdgeStream(5, edges), 2, 1) == law

    tri = triangle.EdgeStream(4, ((1, 2), (2, 3), (1, 3), (3, 4), (2, 4)))
    calls = _count_calls(monkeypatch, triangle, "_build_law")
    laws = [triangle.terminal_law(tri, k) for k in (1, 2, 1, 2)]
    assert len(calls) == 2 and laws[0] is laws[2] and laws[1] is laws[3] and laws[0] != laws[1]

    inst = bhm.generate_instance(8, Fraction(1, 4), 0, seed=1)
    calls = _count_calls(monkeypatch, bhm, "replay_law")
    law = bhm.terminal_slabs(inst)
    bhm.sample_majority(inst, 1, 4, copies=3)
    assert bhm.terminal_slabs(inst) is law and len(calls) == 1
    assert law == bhm.terminal_slabs(bhm.generate_instance(8, Fraction(1, 4), 0, seed=1))


# -- laws built from numerators ------------------------------------------------------


def _equivalence_laws(seed=11, scripts=20):
    """The laws of the equivalence experiment's scripts, keyed as ``qsim`` keys them."""
    universe = UniverseSpec((Block("v", (IntRange(1, 6),)),))
    for i in range(scripts):
        script = random_script(universe, sketch.purpose_rng("equivalence", seed, i), 8)
        tagged = [(op, k) for k, op in enumerate(script)]
        yield replay_law(Tape(universe, [i % 6, (i + 2) % 6], script_items(universe, tagged),
                              lambda k, out: (k, out.value), "end"))


def _numerator_laws():
    yield BHM_LAW
    yield bhm.terminal_slabs(bhm.generate_instance(64, Fraction(1, 4), 0, seed=9))
    for stream, pair in ((HEAVY, (1, 1)), (_directed(8, 20, 3), (2, 1))):
        yield heavy_edges.terminal_law(stream, *pair)
    for k in (1, 2, 5):
        yield triangle.terminal_law(_gnp(), k)
    yield _snapshot_law().law
    yield from _equivalence_laws()


@pytest.mark.parametrize("index", range(len(list(_numerator_laws()))))
def test_a_law_from_numerators_equals_the_law_of_its_fractions(index):
    law = list(_numerator_laws())[index]
    twin = Law(dict(law.atoms))
    assert list(law.atoms.items()) == list(twin.atoms.items())
    for f in (lambda key: 1, lambda key: hash(key) % 7, lambda key: len(repr(key))):
        assert law.expect(f) == twin.expect(f)
    for ours, theirs in zip(law._floats, twin._floats):
        assert ours.tolist() == theirs.tolist()
    for trials, groups in ((10**6, None), (500, 3)):
        drawn = [x.draw_counts(np.random.default_rng(5), trials, groups) for x in (law, twin)]
        assert np.array_equal(*drawn)
    assert np.array_equal(law.sample(np.random.default_rng(6), 1000),
                          twin.sample(np.random.default_rng(6), 1000))


def test_numerators_keep_their_denominator_and_order():
    law = Law.from_numerators(12, {"b": 6, "a": 0, "c": 4, "d": 2})
    assert list(law.atoms.items()) == [
        ("b", Fraction(1, 2)), ("a", Fraction(0)), ("c", Fraction(1, 3)), ("d", Fraction(1, 6))]
    assert law._scaled == (12, [6, 0, 4, 2])  # a common denominator, not the least one
    assert law == Law(dict(law.atoms)) and Law(dict(law.atoms))._scaled == (6, [3, 0, 2, 1])
    assert law.expect(lambda key: key in "bd") == Fraction(2, 3)


@pytest.mark.parametrize("nums", [{"a": 1, "b": 4}, {"a": 7}, {"a": 3, "b": 3, "c": 1}, {}])
def test_numerators_off_their_denominator_raise(nums):
    with pytest.raises(InvariantError, match="^law carries mass .*, not 1$"):
        Law.from_numerators(6, nums)
