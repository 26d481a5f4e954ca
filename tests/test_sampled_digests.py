"""Report digests of the sampled experiments at trial counts that span many draw blocks.

Each digest is the SHA-256 of ``canonical_json(report.to_dict())`` for the
instances of ``tests/test_golden.py`` at 100_003 trials; bhm also votes
600 committees of 193 copies, so a committee's draws can straddle any
power-of-two block edge. A sampler that draws in blocks must give the very
doubles, and so the very bytes, of one draw per trial in one call.
"""
import dataclasses
import hashlib

import pytest

from pairsketch.harness import canonical_json, run_experiment, write_instance

from test_golden import CONFIGS, SNAPSHOT_STREAM

TRIALS = 100_003

DIGESTS = {
    "bhm": "9212e72002f1428c60347f5ac13f81848e867b3a24a113876c701326ee607f78",
    "heavy": "889f08a5aa42b7e25ba823242186749bddd907600d462e1c1e32d08a2a79fe83",
    "snapshot": "dac6977c12a271acff3a4f88a644ea1f79b0dc0b7ee1b9b3c8251965a65c0b5e",
    "triangle": "13d81a9082365e90e93b9fcbdc9f6479001d165cc221d7c521340952613809dd",
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
