"""Report digests of the sampled experiments at 100_003 trials.

Each digest is the SHA-256 of ``canonical_json(report.to_dict())`` for the
instances of ``tests/test_golden.py`` at 100_003 trials; bhm also votes
600 committees of 193 copies. Every experiment reads per-atom counts, drawn
as one multinomial per law (and one per committee over its three outputs),
from a stream of the master seed of its own; a change to any of these
draws moves the bytes.
"""
import dataclasses
import hashlib

import pytest

from pairsketch.harness import canonical_json, run_experiment, write_instance

from test_golden import CONFIGS, SNAPSHOT_STREAM

TRIALS = 100_003

DIGESTS = {
    "bhm": "ee31db11afff7f990f2713b38a9eacf7c35f05c8c2f0bba1eed40364ac45cfee",
    "heavy": "a951479584388272cc612c90ec13d6d3e16c2dfbb2a302da8969c97458a1b3a1",
    "snapshot": "060f00e2b6e69ab43304f523989556250f35bf1c5a33056f0ae0a2d4a09f30c4",
    "triangle": "40be2a3604019e13be18d0c1ca5eb5fb30483c6c47e9580b70e962f3e82dfe23",
}


def _config(algorithm):
    config = dataclasses.replace(CONFIGS[algorithm], trials=TRIALS)
    if algorithm == "bhm":
        config = dataclasses.replace(config, params={"meta_trials": 600, "copies": 193})
    return config


@pytest.mark.parametrize("algorithm", sorted(DIGESTS))
def test_many_block_report_bytes_match_digest(algorithm, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_instance(SNAPSHOT_STREAM, "snapshot.txt")
    report = run_experiment(_config(algorithm))
    assert report.passed
    text = canonical_json(report.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[algorithm]
