"""The experiment config each CLI subcommand builds, pinned argv by argv,
and the README's table of experiment params."""
import argparse
from pathlib import Path

import pytest

from pairsketch import cli
from pairsketch.harness import AS_GIVEN, EXPERIMENTS, REQUIRED, Report

README = Path(__file__).resolve().parent.parent / "README.md"

CASES = [
    (
        ["bhm"],
        {"algorithm": "bhm", "params": {}, "trials": 200_000, "master_seed": 0,
         "instance": {"kind": "matching", "n": 64, "alpha": "1/4"}, "output": None},
    ),
    (
        ["bhm", "--instance", "m.txt", "--n", "12", "--alpha", "1/2", "--b", "1",
         "--meta-trials", "5", "--copies", "7", "--trials", "900", "--seed", "3",
         "--out", "r.json"],
        {"algorithm": "bhm", "params": {"meta_trials": 5, "copies": 7}, "trials": 900,
         "master_seed": 3, "instance": "m.txt", "output": "r.json"},
    ),
    (
        ["bhm", "--n", "12", "--alpha", "1/2", "--b", "0", "--meta-trials", "5",
         "--copies", "7", "--trials", "900", "--seed", "3", "--out", "r.json"],
        {"algorithm": "bhm", "params": {"meta_trials": 5, "copies": 7}, "trials": 900,
         "master_seed": 3, "instance": {"kind": "matching", "n": 12, "alpha": "1/2", "b": 0},
         "output": "r.json"},
    ),
    (
        ["triangle", "--stream", "g.txt", "--k", "2"],
        {"algorithm": "triangle", "params": {"k": 2}, "trials": 200_000, "master_seed": 0,
         "instance": "g.txt", "output": None},
    ),
    (
        ["triangle", "--stream", "g.txt", "--k", "2", "--trials", "50", "--seed", "4",
         "--out", "t.json"],
        {"algorithm": "triangle", "params": {"k": 2}, "trials": 50, "master_seed": 4,
         "instance": "g.txt", "output": "t.json"},
    ),
    (
        ["heavy", "--stream", "d.txt", "--dh", "2", "--dt", "1"],
        {"algorithm": "heavy", "params": {"d_H": 2, "d_T": 1}, "trials": 200_000,
         "master_seed": 0, "instance": "d.txt", "output": None},
    ),
    (
        ["heavy", "--stream", "d.txt", "--dh", "2", "--dt", "1", "--trials", "60",
         "--seed", "5", "--out", "h.json"],
        {"algorithm": "heavy", "params": {"d_H": 2, "d_T": 1}, "trials": 60,
         "master_seed": 5, "instance": "d.txt", "output": "h.json"},
    ),
    (
        ["snapshot", "--stream", "d.txt", "--kappa", "2", "--eps", "1/2",
         "--thresholds=-1,0", "--alpha", "3", "--beta", "1"],
        {"algorithm": "snapshot",
         "params": {"kappa": 2, "eps": "1/2", "thresholds": ["-1", "0"], "alpha": 3,
                    "beta": 1},
         "trials": 300_000, "master_seed": 0, "instance": "d.txt", "output": None},
    ),
    (
        ["snapshot", "--stream", "d.txt", "--kappa", "2", "--eps", "1/2",
         "--thresholds=-1, 0,,1/2", "--alpha", "3", "--beta", "1", "--copies", "70",
         "--hash-seed", "0", "--seed", "6", "--out", "s.json"],
        {"algorithm": "snapshot",
         "params": {"kappa": 2, "eps": "1/2", "thresholds": ["-1", "0", "1/2"], "alpha": 3,
                    "beta": 1, "hash_seed": 0},
         "trials": 70, "master_seed": 6, "instance": "d.txt", "output": "s.json"},
    ),
    (
        ["equivalence"],
        {"algorithm": "equivalence", "params": {"universe": 8, "max_size": 4, "max_len": 5},
         "trials": 200, "master_seed": 0, "instance": None, "output": None},
    ),
    (
        ["equivalence", "--universe", "5", "--max-size", "2", "--max-len", "3",
         "--scripts", "15", "--seed", "7", "--out", "e.json"],
        {"algorithm": "equivalence", "params": {"universe": 5, "max_size": 2, "max_len": 3},
         "trials": 15, "master_seed": 7, "instance": None, "output": "e.json"},
    ),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_each_subcommand_builds_its_pinned_config(argv, expected, monkeypatch, capsys):
    recorded = []

    def record(config):
        recorded.append(config.to_dict())
        return Report(1, config.to_dict(), {"gates": {}}, {})

    monkeypatch.delenv("PAIRSKETCH_SEED", raising=False)
    monkeypatch.setattr(cli, "run_experiment", record)
    assert cli.main(argv) == 0
    assert recorded == [expected]
    capsys.readouterr()


def test_the_readme_param_table_matches_the_harness_table_and_the_flags():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| algorithm | param | default | flag |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))

    subparsers = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    expected = []
    for algorithm, entry in EXPERIMENTS.items():
        flags = {
            action.dest: action.option_strings[0] for action in subparsers[algorithm]._actions
        }
        for param, default in entry.params.items():
            if default is REQUIRED or default is AS_GIVEN:
                shown = "required"
            elif default is None:
                shown = next(row[2] for row in rows if row[:2] == (algorithm, param))
                assert shown.startswith("none ("), (algorithm, param)
            else:
                shown = str(default)
            expected.append((algorithm, param, shown, flags.get(param, "none")))
    assert rows == expected
