"""Checks on the package source itself."""
import ast
from pathlib import Path

import pairsketch

SRC = Path(pairsketch.__file__).parent


def _tree(name):
    path = SRC / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_has_no_assert_statements():
    # invariants must raise: ``python -O`` strips every assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_law_consumers_leave_sampling_to_the_sketch_module():
    # the atom sampler lives in sketch.sample_atoms; the exact laws only
    # build atoms
    for name in ("bhm.py", "heavy_edges.py", "pseudosnapshot.py", "qsim.py", "triangle.py"):
        attrs = {
            node.attr for node in ast.walk(_tree(name)) if isinstance(node, ast.Attribute)
        }
        assert not attrs & {"cumsum", "searchsorted"}, name


def test_harness_takes_gate_sigmas_from_exact_laws():
    # a gate's sigma is the exact law's standard error, never a sample statistic
    text = (SRC / "harness.py").read_text(encoding="utf-8")
    assert [w for w in (".var(", ".std(", "ddof", "sqsums") if w in text] == []
