"""The exact ``Law`` type, ``replay_law``, and the samplers built on them."""
from fractions import Fraction

import numpy as np
import pytest

from pairsketch import (
    Block,
    IntRange,
    InvalidParamsError,
    InvariantError,
    QueryOne,
    QueryPair,
    UniverseSpec,
    Update,
    enumerate_distribution,
    swap_perm,
)
from pairsketch import bhm, heavy_edges, triangle
from pairsketch import pseudosnapshot as ps
from pairsketch.harness import random_script
from pairsketch.sketch import Law, replay_law

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

    def random(self, trials):
        return np.full(trials, 1 - 2**-53)


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
    law = replay_law(EIGHT, [0, 1, 2, 3], ops, lambda tag, out: (tag, out.value), "end")
    assert list(law.atoms) == [("pair", "Plus"), ("pair", "Minus"), ("one", "In"), "end"]
    assert law.atoms[("pair", "Plus")] == law.atoms[("pair", "Minus")] == Fraction(1, 8)
    # both single queries fire with 1/|T0| each: they merge under one key
    assert law.atoms[("one", "In")] == Fraction(2, 4)
    assert law.atoms["end"] == Fraction(1, 4)


@pytest.mark.parametrize("seed", range(20))
def test_replay_law_matches_the_quantum_first_hit_law(seed):
    rng = np.random.default_rng(seed)
    members = sorted(int(x) for x in rng.choice(8, size=int(rng.integers(1, 6)), replace=False))
    script = random_script(EIGHT, rng, 8)
    tagged = [(op, k) for k, op in enumerate(script)]
    law = replay_law(EIGHT, members, tagged, lambda k, out: (k, out.value), "end")
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


def _snapshot_law():
    stream = heavy_edges.DirectedEdgeStream(3, ((1, 2), (2, 3)))
    params = ps.SnapshotParams(kappa=1, eps="1/2", thresholds=("-1",), class_pair=(0, 0))
    grid = ps.DegreeGrid.from_eps(3, "1/2")
    return ps.terminal_law(stream, ps.HashOracles(0, 1, "1/2"), grid, params)


NEGATIVE_TRIALS = {
    "bhm.sample_outputs": lambda: bhm.sample_outputs(BHM, 1, -1),
    "bhm.sample_majority": lambda: bhm.sample_majority(BHM, 1, -2, copies=3),
    "heavy_edges.sample_outputs": lambda: heavy_edges.sample_outputs(HEAVY, 2, 1, 0, -1),
    "triangle.sample_outputs": lambda: triangle.sample_outputs(TRIANGLE, 2, 0, -1),
    "SnapshotLaw.sample": lambda: _snapshot_law().sample(0, -1),
}


@pytest.mark.parametrize("call", NEGATIVE_TRIALS.values(), ids=NEGATIVE_TRIALS.keys())
def test_samplers_reject_negative_trial_counts(call):
    with pytest.raises(InvalidParamsError, match="trials must be >= 0, got -"):
        call()
