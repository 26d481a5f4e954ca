"""No two random purposes share a seed stream.

Live handles draw from ``[seed, handle_id]`` and a triangle run's edge
selection from ``[seed, handle_id, 2]``; every other purpose (each sampler,
the majority vote, each equivalence script) from ``sketch.purpose_rng``.
numpy pads the entropy words with zeros to four, so ``[s, h]`` and ``[s, h,
0]`` are one stream: the test records the streams each path really makes.
"""
import numpy as np

from pairsketch import bhm, heavy_edges, sketch, triangle
from pairsketch.harness import ExperimentConfig, run_experiment
from test_law import BHM, EIGHT, HEAVY, TRIANGLE, _snapshot_law

SEEDS, IDS = range(4), range(64)


class _Stop(Exception):
    """Ends a run once it has made the stream under test."""


def _made(monkeypatch, call) -> list[tuple[int, ...]]:
    """``generate_state(4)`` of each ``SeedSequence`` that ``call`` makes, in order."""
    made = []

    class Recorded(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(tuple(self.generate_state(4).tolist()))

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "SeedSequence", Recorded)
        try:
            call()
        except _Stop:
            pass
    return made


def _stop(*args, **kwargs):
    raise _Stop


def test_no_two_purposes_share_a_seed_stream(monkeypatch):
    streams: dict[tuple[int, ...], tuple] = {}

    def claim(state, *purpose):
        assert streams.setdefault(state, purpose) == purpose, (streams[state], purpose)

    for seed in SEEDS:
        for h in IDS:
            (live,) = _made(monkeypatch, lambda: sketch.create(
                EIGHT, [0], master_seed=seed, handle_id=h))
            claim(live, "live handle", seed, h)
            with monkeypatch.context() as patch:  # the selection alone: no handle
                patch.setattr(triangle, "create", _stop)
                (selection,) = _made(monkeypatch, lambda: triangle.run_single(
                    TRIANGLE, 2, seed, handle_id=h))
            claim(selection, "triangle selection", seed, h)
        samplers = {
            "bhm": (lambda: bhm.sample_outputs(BHM, seed, 1),
                    lambda: bhm.sample_counts(BHM, seed, 1)),
            "heavy": (lambda: heavy_edges.sample_outputs(HEAVY, 2, 1, seed, 1),
                      lambda: heavy_edges.sample_counts(HEAVY, 2, 1, seed, 1)),
            "triangle": (lambda: triangle.sample_outputs(TRIANGLE, 2, seed, 1),
                         lambda: triangle.sample_counts(TRIANGLE, 2, seed, 1)),
            "snapshot": (lambda: _snapshot_law().sample(seed, 1),
                         lambda: _snapshot_law().entry_sums(seed, 1)),
        }
        for name, (outputs, counts) in samplers.items():
            (state,) = _made(monkeypatch, outputs)
            assert _made(monkeypatch, counts) == [state]  # one stream per sampler
            claim(state, "sampler", name, seed)
        # a bhm experiment draws its counts, then its majority vote
        config = ExperimentConfig("bhm", {"meta_trials": 3, "copies": 5}, 10, seed,
                                  {"kind": "matching", "n": 8, "alpha": "1/4", "b": 1})
        counts, majority = _made(monkeypatch, lambda: run_experiment(config))
        claim(counts, "sampler", "bhm", seed)
        claim(majority, "majority", seed)
        config = ExperimentConfig("equivalence", {"universe": 3, "max_size": 1, "max_len": 2},
                                  len(IDS), seed)
        scripts = _made(monkeypatch, lambda: run_experiment(config))
        assert len(scripts) == len(IDS)
        for i, state in enumerate(scripts):
            claim(state, "equivalence script", seed, i)
    assert len(streams) == len(SEEDS) * (3 * len(IDS) + 5)


def test_each_purpose_stream_is_stable():
    for purpose in sketch.SEED_PURPOSES:
        draws = sketch.purpose_rng(purpose, 42, 3).random(4)
        assert np.array_equal(draws, sketch.purpose_rng(purpose, 42, 3).random(4))
        assert not np.array_equal(draws, sketch.purpose_rng(purpose, 43, 3).random(4))
        assert not np.array_equal(draws, sketch.purpose_rng(purpose, 42, 4).random(4))
