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
BLOCK = sketch._DRAW_BLOCK


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
    "Law.sample_counts": (TRIALS, lambda: THIRDS.sample_counts(np.random.default_rng(0), -1)),
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
}


@pytest.mark.parametrize("message, call", NEGATIVE_TRIALS.values(), ids=NEGATIVE_TRIALS.keys())
def test_samplers_reject_negative_trial_counts(message, call):
    with pytest.raises(InvalidParamsError, match=f"{message}, got -"):
        call()


# each sampling and counting path, with ``n`` in the place of one count
COUNTED = {
    "Law.sample": ("trials", lambda n: THIRDS.sample(np.random.default_rng(0), n)),
    "Law.sample_counts": ("trials", lambda n: THIRDS.sample_counts(np.random.default_rng(0), n)),
    "Law.blocks": ("trials", lambda n: list(THIRDS.blocks(np.random.default_rng(0), n))),
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


# -- counting in blocks against one draw array ----------------------------------

def test_thirds_have_guide_cells_that_hold_a_bound():
    # so their draws take the search path as well as the table
    assert (THIRDS._guide[1] < 0).any()


@pytest.mark.parametrize("trials", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("law", [THIRDS, BHM_LAW], ids=["thirds", "bhm"])
def test_counts_equal_the_bincount_of_one_draw_array(law, trials):
    got = law.sample_counts(np.random.default_rng(11), trials)
    want = np.bincount(law.sample(np.random.default_rng(11), trials), minlength=len(law.atoms))
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # the blocks are the one array, cut
    blocks = list(law.blocks(np.random.default_rng(11), trials))
    assert all(len(b) == BLOCK for b in blocks[:-1])
    whole = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.intp)
    assert np.array_equal(whole, law.sample(np.random.default_rng(11), trials))


@pytest.mark.parametrize("trials", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_counts_of_top_draws_skip_a_trailing_zero_atom(trials):
    law = Law({**{k: Fraction(1, 10) for k in range(10)}, "abort": Fraction(0)})
    got = law.sample_counts(_TopDraw(), trials)
    assert np.array_equal(got, np.bincount(law.sample(_TopDraw(), trials), minlength=11))
    assert got.tolist() == [0] * 9 + [trials, 0]


@pytest.mark.parametrize("unit", [1, 7, BLOCK - 1, BLOCK, BLOCK + 3])
def test_blocks_hold_whole_units(unit):
    trials = unit * max(3, 3 * BLOCK // unit)  # three blocks or more
    sizes = [len(b) for b in THIRDS.blocks(np.random.default_rng(2), trials, unit)]
    assert sum(sizes) == trials and all(size % unit == 0 for size in sizes)
    assert max(sizes) == max(1, BLOCK // unit) * unit


def test_blocks_check_their_counts_on_the_call():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidParamsError, match="trials must be >= 0, got -1"):
        THIRDS.blocks(rng, -1)
    with pytest.raises(InvalidParamsError, match="unit must be >= 1, got 0"):
        THIRDS.blocks(rng, 4, 0)
    with pytest.raises(InvalidParamsError, match="unit must be an integer, got 1.0"):
        THIRDS.blocks(rng, 4, 1.0)


# -- sampled estimates, counted in blocks ---------------------------------------

# floats the sampled estimates returned when they drew one array of all runs:
# heavy_edges.estimate_sampled on _directed(8, 20, 2) at seed 5 and eps 1/2,
# keyed (d_H, d_T, copies)
SAMPLED_HEAVY = {
    (1, 1, 75): "0x1.2222222222222p+4",
    (1, 1, 16385): "0x1.3b8711e3b8712p+4",
    (2, 1, 16384): "0x1.f108000000000p+3",
    (2, 1, 100003): "0x1.fc6d251739e72p+3",
    (3, 2, 100003): "0x1.7d84a5c538134p+3",
}
# triangle.estimate_sampled on _gnp() at master seed 3, keyed (k, copies, groups)
SAMPLED_TRIANGLE = {
    (1, 1000, 1): "-0x1.10624dd2f1aa0p-3",
    (1, 7, 9): "0x1.5b6db6db6db6ep+1",
    (1, 16385, 3): "-0x1.1cfb8c11cfb8cp-6",
    (2, 40000, 1): "0x1.0fa786c22680ap+0",
    (5, 16385, 3): "0x1.9e1d8789e1d88p+1",
    (5, 1000, 1): "0x1.b5c28f5c28f5cp+0",
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
    # 2 * 10**6 runs each, drawn a block at a time: no array of one entry per
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


# -- the guide-table draw path against one search per draw ----------------------


def _searchsorted_sample(law, rng, trials):
    """The reference draw path: one search per draw over the pinned cumulative bounds."""
    probs = list(law.atoms.values())
    cum = np.cumsum([float(p) for p in probs])
    cum[max(k for k, p in enumerate(probs) if p):] = 1.0
    return np.searchsorted(cum, rng.random(trials), side="right")


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
@given(weighted_laws(), st.sampled_from([0, 1, 10**5]), st.integers(0, 2**32 - 1))
def test_guide_table_draws_match_one_search_per_draw(law, trials, seed):
    got = law.sample(np.random.default_rng(seed), trials)
    want = _searchsorted_sample(law, np.random.default_rng(seed), trials)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # draws on and beside every bound and every cell edge
    cum, table = law._guide
    cells = len(table)
    edges = np.arange(cells) / cells
    u = np.concatenate([edges, cum, np.nextafter(cum, 0), np.nextafter(edges[1:], 0), [0.0]])
    u = u[(u >= 0) & (u < 1)]
    got = law.sample(_Uniforms(u), len(u))
    assert np.array_equal(got, _searchsorted_sample(law, _Uniforms(u), len(u)))


def test_guide_table_has_a_power_of_two_cells_at_least_eight_per_atom():
    for n in (1, 2, 3, 20, 321):
        law = Law({k: Fraction(1, n) for k in range(n)})
        cells = len(law._guide[1])
        assert cells >= 8 * n and cells & (cells - 1) == 0 and cells < 16 * n


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
                                 ps._fire_key(stream, hashes, grid, params, plan.big_m),
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
