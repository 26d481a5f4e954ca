"""Golden report digests: one small seeded experiment per algorithm.

Each digest is the SHA-256 of ``canonical_json(report.to_dict())``. A change
that moves any of them changes report bytes for a fixed seed, and must say so
and why. Instances are generator specs or a relative path under the test's own
directory, so the bytes do not depend on where the checkout lives.
"""
import hashlib

import pytest

from pairsketch.harness import ExperimentConfig, canonical_json, run_experiment, write_instance
from pairsketch.heavy_edges import DirectedEdgeStream

SNAPSHOT_STREAM = DirectedEdgeStream(
    12, ((11, 9), (4, 10), (7, 11), (9, 4), (9, 8), (3, 2), (4, 11), (11, 7), (12, 6), (9, 2))
)

CONFIGS = {
    "bhm": ExperimentConfig(
        "bhm", {"meta_trials": 30, "copies": 24}, 3000, 5,
        {"kind": "matching", "n": 16, "alpha": "1/4", "b": 1},
    ),
    "triangle": ExperimentConfig(
        "triangle", {"k": 2}, 3000, 6, {"kind": "gnp", "n": 9, "p": 0.5},
    ),
    "heavy": ExperimentConfig("heavy", {"d_H": 2, "d_T": 1}, 3000, 7, {"kind": "star", "n": 8}),
    "snapshot": ExperimentConfig(
        "snapshot",
        {"kappa": 2, "eps": "1/2", "thresholds": ["-1", "0"], "alpha": 3, "beta": 1,
         "hash_seed": 7},
        400, 8, "snapshot.txt",
    ),
    "equivalence": ExperimentConfig("equivalence", {"universe": 4, "max_size": 2}, 12, 9),
}

DIGESTS = {
    "bhm": "0a44c3a45cf827030f8596a59da6cc7c93b2ab081e3026581c7691eb5111449b",
    "triangle": "7f809484ed1242fa82ff35dfc967823a4c0610c90dd19776701f393ddc127bff",
    "heavy": "5177491cb54cf8543c4bb541767f1434f4d7b3b2d0532ea01b4cf1443d682b29",
    "snapshot": "2a42e595e9c05d543045032a4e76c295ea92bea0a4a98c5ca3a9f619bb84c300",
    "equivalence": "c35e5f0813e858d98599aaa631b69de59f12eb53532b6794caaa57d74edfaccf",
}


@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_report_bytes_match_golden_digest(algorithm, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_instance(SNAPSHOT_STREAM, "snapshot.txt")
    report = run_experiment(CONFIGS[algorithm])
    assert report.passed
    text = canonical_json(report.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[algorithm]
