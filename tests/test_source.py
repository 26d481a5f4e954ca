"""Checks on the package source itself."""
import ast
from pathlib import Path

import pairsketch

SRC = Path(pairsketch.__file__).parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
    # the atom sampler lives in sketch.Law.sample; the exact laws only
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


def test_estimators_compute_ids_without_the_validating_encoder():
    # a string's .encode() is fine; UniverseSpec.encode validates per call
    for name in ("bhm.py", "heavy_edges.py", "triangle.py", "pseudosnapshot.py"):
        calls = [
            node.lineno
            for node in ast.walk(_tree(name))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "encode"
            and not isinstance(node.func.value, (ast.Constant, ast.JoinedStr))
        ]
        assert calls == [], name


def _functions(name, *qualnames):
    """The function definitions ``qualnames`` (``Class.method`` or ``function``) of a module."""
    out = {}
    for node in _tree(name).body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return [out[q] for q in qualnames]


def test_query_paths_check_endpoints_against_a_size_read_once():
    # contains_id recomputes the universe size on every call
    funcs = _functions(
        "sketch.py",
        "SketchHandle.query_one",
        "SketchHandle.query_pair",
        "_check_query",
        "replay_noiseless",
    )
    for func in funcs:
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(func)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert "contains_id" not in names, func.name


def test_only_the_permutation_module_reads_a_shift_selection():
    # members are grouped by cyclic line alone; a block carries no storage hint
    for path in sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py")):
        assert "bucket_depth" not in path.read_text(encoding="utf-8"), path.name
    attrs = {node.attr for node in ast.walk(_tree("sketch.py")) if isinstance(node, ast.Attribute)}
    assert not attrs & {"select", "strides", "sizes"}


def test_live_runs_read_their_instance_tape():
    # a live run compiles nothing itself: permutations and universes are
    # built once per instance, on its tape
    for name in ("bhm.py", "heavy_edges.py", "triangle.py"):
        (func,) = _functions(name, "run_single")
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(func)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert not names & {"PermutationSpec", "SwapStage", "CyclicShift"}, name
        called = [
            node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
        ]
        assert [c for c in called if c.endswith("_universe")] == [], name


def test_each_fire_rule_is_written_once():
    # a live run returns through the same fire -> key map its exact law is
    # built from, so neither names Plus or Minus itself
    for name in ("bhm.py", "heavy_edges.py", "triangle.py", "pseudosnapshot.py"):
        funcs = [
            node
            for node in _tree(name).body
            if isinstance(node, ast.FunctionDef)
            and node.name in ("run_single", "terminal_law", "terminal_slabs")
        ]
        assert len(funcs) == 2, name
        for func in funcs:
            attrs = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
            assert not attrs & {"PLUS", "MINUS"}, (name, func.name)
