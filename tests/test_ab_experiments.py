"""tools/ab_experiments.py, run with one source tree on both sides."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_experiments.py"
spec = importlib.util.spec_from_file_location("ab_experiments", TOOL)
ab_experiments = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_experiments)


def test_one_tree_against_itself_gives_equal_reports_and_a_table(tmp_path, capsys):
    src = ROOT / "src"
    assert ab_experiments.main([str(src), str(src), "--rounds", "2",
                                "--workdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "best of 2 alternating rounds, seed 37; reports equal"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == ["snapshot", "bhm", "heavy", "triangle", "plan", "experiments"]
    assert all(float(ms) > 0 for cells in rows.values() for ms in cells[-3:-1])
    assert sorted(p.name for p in tmp_path.glob("*.txt")) == [
        "bhm.txt", "heavy.txt", "snapshot.txt", "triangle.txt"]


def test_an_absolute_import_of_the_package_is_refused(tmp_path):
    package = tmp_path / "pairsketch"
    package.mkdir()
    (package / "__init__.py").write_text("from . import a\n")
    (package / "a.py").write_text("from pairsketch.b import c\n")
    with pytest.raises(ValueError, match="a.py imports pairsketch absolutely"):
        ab_experiments.load(tmp_path, "pairsketch_refused")
