"""Checks on the package source itself."""
import ast
from pathlib import Path

import pairsketch

SRC = Path(pairsketch.__file__).parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"
ESTIMATORS = ("bhm.py", "heavy_edges.py", "triangle.py", "pseudosnapshot.py")


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
        "SketchHandle.query_group",
        "QueryGroup.__init__",
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
    # a live run compiles nothing itself: permutations, frames, query groups
    # and universes are built once per instance, on its tape (a snapshot
    # run's plan)
    for name in ("bhm.py", "heavy_edges.py", "triangle.py", "pseudosnapshot.py"):
        (func,) = _functions(name, "run_single")
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(func)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        forbidden = {"PermutationSpec", "SwapStage", "CyclicShift", "Frame", "QueryGroup"}
        assert not names & forbidden, name
        called = [
            node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
        ]
        assert [c for c in called if c.endswith("_universe")] == [], name


def _called(node):
    """Names of everything called under ``node``, as ``f(...)`` or ``x.f(...)``."""
    return {
        call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Attribute, ast.Name))
    }


def test_burst_queries_run_as_query_groups():
    # one live loop: sketch.run_tagged runs every tape item's queries as
    # groups (bhm's four per edge, triangle's n per selected edge, a snapshot
    # edge's pair queries and cleanups, heavy's one probe), and each
    # estimator's run_single hands it the tape
    (loop,) = _functions("sketch.py", "run_tagged")
    assert {"update", "query_group"} <= _called(loop)
    assert not _called(loop) & {"query_one", "query_pair"}
    for name in ESTIMATORS:
        (func,) = _functions(name, "run_single")
        assert "run_tagged" in _called(func), name
        assert not _called(func) & {"update", "query_group", "query_one", "query_pair"}, name
        assert not _called(_tree(name)) & {"query_group", "query_one", "query_pair"}, name


def test_no_estimator_builds_script_ops():
    # live runs and laws walk the same tape items; only heavy_edges.build_script,
    # the literal reference the tests compare with, spells a pass as script ops
    script_ops = {"Update", "QueryOne", "QueryPair"}
    for name in ESTIMATORS:
        tree = _tree(name)
        allowed = {
            id(node)
            for func in tree.body
            if isinstance(func, ast.FunctionDef)
            and (name, func.name) == ("heavy_edges.py", "build_script")
            for node in ast.walk(func)
        }
        built = [
            node.lineno
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and id(call) not in allowed
            for node in (call.func, *call.args)
            if isinstance(node, ast.Name) and node.id in script_ops
        ]
        assert built == [], name


def _names(func):
    return {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(func)
        if isinstance(node, (ast.Attribute, ast.Name))
    }


def test_fixed_op_sequences_frame_their_ids_by_arithmetic():
    # the snapshot plan and the heavy-edge tape know every line's rotation
    # (a stack's top, a vertex's running degree), so they frame each id with
    # permutation.frame_id and never fold shifts through a Frame
    (cls,) = [
        node for node in _tree("pseudosnapshot.py").body
        if isinstance(node, ast.ClassDef) and node.name == "_Plan"
    ]
    plan = [f"_Plan.{func.name}" for func in cls.body if isinstance(func, ast.FunctionDef)]
    sources = {
        "pseudosnapshot.py": ["build_plan", "_increments", *plan],
        "heavy_edges.py": [
            "DirectedEdgeStream._updates", "_fresh_pairs", "_framed_update", "_framed_edges"
        ],
    }
    for name, qualnames in sources.items():
        for func in _functions(name, *qualnames):
            assert not _names(func) & {"CyclicShift", "compile_shift", "Frame", "fold"}, func.name
    framing = _functions("pseudosnapshot.py", "_Plan.slot", "_Plan.increment", "_Plan.cleanup_slots")
    framing += _functions("heavy_edges.py", "_framed_update", "_framed_edges")
    for func in framing:
        assert "frame_id" in _names(func), func.name


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


def test_cyclic_line_arithmetic_lives_in_the_permutation_module():
    # the member store keeps shifts in a permutation.Frame, which alone
    # frames ids and maps them back
    tree = _tree("sketch.py")
    mods = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
    ]
    assert mods == []
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attrs & {"rot", "buckets"}


def test_the_live_handle_draws_its_uniforms_in_one_place():
    # a handle's uniforms come in order from one block refill; a second draw
    # path could take them out of order. Law.sample (one array) draws from a
    # generator of its own, never a handle's, and Law.draw_counts draws no
    # uniforms of its own.
    sites = []
    for node in _tree("sketch.py").body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for func in members:
            if isinstance(func, ast.FunctionDef):
                name = f"{node.name}.{func.name}" if func is not node else func.name
                sites += [
                    name
                    for call in ast.walk(func)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "random"
                ]
    assert sorted(sites) == ["Law.sample", "SketchHandle._refill"]


def _compares(node):
    """Every comparison under ``node``, as the list of its operands."""
    return [[c.left, *c.comparators] for c in ast.walk(node) if isinstance(c, ast.Compare)]


def test_only_the_algorithm_table_names_the_algorithms():
    # harness.EXPERIMENTS holds every per-algorithm fact, so no other code
    # branches on an algorithm's name. parse_stream compares stream kinds,
    # one of which is also called "bhm"; the CLI branches on "gen", which is
    # no experiment, and on "bhm", whose default instance is a generator spec.
    from pairsketch.harness import ALGORITHMS

    found = [
        f"harness.py:{operand.lineno}"
        for node in _tree("harness.py").body
        if getattr(node, "name", None) != "parse_stream"
        for operands in _compares(node)
        for operand in operands
        if isinstance(operand, ast.Constant) and operand.value in ALGORITHMS
    ]
    assert found == []

    def is_command(node):
        return isinstance(node, ast.Attribute) and node.attr == "command"

    compared = [
        operand.value if isinstance(operand, ast.Constant) else ast.dump(operand)
        for operands in _compares(_tree("cli.py"))
        if any(is_command(operand) for operand in operands)
        for operand in operands
        if not is_command(operand)
    ]
    assert sorted(compared) == ["bhm", "gen"]
