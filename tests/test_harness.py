import dataclasses
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pairsketch import ConfigError, InvalidParamsError, ParseError, ValidationError
from pairsketch import heavy_edges
from pairsketch import pseudosnapshot as ps
from pairsketch.bhm import BhmInstance
from pairsketch.cli import main
from pairsketch.harness import (
    EQUIVALENCE_TOLERANCE,
    ExperimentConfig,
    Report,
    canonical_json,
    emit_report,
    generate_graph,
    parse_stream,
    run_experiment,
    write_instance,
)
from pairsketch.heavy_edges import DirectedEdgeStream
from pairsketch.sketch import purpose_rng
from pairsketch.triangle import EdgeStream, oracle_t_split
from test_golden import CONFIGS, SNAPSHOT_STREAM


# -- configuration -----------------------------------------------------------------


def test_config_rejects_bad_fields():
    good = dict(algorithm="triangle", params={"k": 1}, trials=10, master_seed=0,
                instance="x.txt")
    ExperimentConfig(**good)
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "algorithm": "simplex"})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "trials": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "trials": 1.5})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "master_seed": "7"})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "instance": None})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "instance": 3})


def test_equivalence_takes_no_instance():
    ExperimentConfig("equivalence", {}, 5, 0)
    with pytest.raises(ConfigError):
        ExperimentConfig("equivalence", {}, 5, 0, instance="x.txt")


def test_config_from_dict_round_trip():
    cfg = ExperimentConfig.from_dict(
        {"algorithm": "heavy", "params": {"d_H": 2, "d_T": 1}, "trials": 3,
         "master_seed": 9, "instance": "s.txt"}
    )
    assert cfg.to_dict()["params"] == {"d_H": 2, "d_T": 1}
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"algorithm": "heavy", "trials": 3})
    assert "missing" in str(err.value)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(
            {"algorithm": "equivalence", "params": {}, "trials": 3,
             "master_seed": 0, "seeds": [1]}
        )
    assert "unknown" in str(err.value)


def test_trial_seeds_are_stable_and_spread():
    # the equivalence experiment draws script i from purpose_rng("equivalence", seed, i)
    def state(seed, i):
        return purpose_rng("equivalence", seed, i).bit_generator.state["state"]["state"]

    seeds = [state(42, i) for i in range(64)]
    assert seeds == [state(42, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert state(43, 0) != seeds[0]


# -- generators --------------------------------------------------------------------


def test_star_shares_one_center():
    stream, side = generate_graph("star", {"n": 4}, 0)
    assert isinstance(stream, DirectedEdgeStream)
    assert stream.m == 3
    heads = {u for u, _ in stream.edges}
    assert heads == {side["center"]}


def test_gnp_is_seed_deterministic():
    a, _ = generate_graph("gnp", {"n": 15, "p": 0.3}, 11)
    b, _ = generate_graph("gnp", {"n": 15, "p": 0.3}, 11)
    c, _ = generate_graph("gnp", {"n": 15, "p": 0.3}, 12)
    assert a == b
    assert a != c


def test_planted_triangles_sidecar_matches_oracle():
    stream, side = generate_graph("planted-triangles", {"n": 11, "t": 3}, 5)
    assert isinstance(stream, EdgeStream)
    assert stream.m == 9
    assert oracle_t_split(stream, 1).T == side["triangles"] == 3


def test_matching_generator_returns_instance():
    inst, side = generate_graph("matching", {"n": 8, "alpha": "1/4", "b": 1}, 2)
    assert isinstance(inst, BhmInstance)
    assert inst.b == side["b"] == 1
    assert side["m"] == 2


def test_generator_rejects_bad_requests():
    with pytest.raises(ConfigError):
        generate_graph("torus", {"n": 4}, 0)
    with pytest.raises(ConfigError):
        generate_graph("star", {"n": 4, "p": 0.5}, 0)
    with pytest.raises(InvalidParamsError):
        generate_graph("planted-triangles", {"n": 5, "t": 2}, 0)
    with pytest.raises(InvalidParamsError):
        generate_graph("gnp", {"n": 5, "p": 1.5}, 0)


@pytest.mark.parametrize("kind, params, field", [
    ("gnp", {"n": 5}, "'p'"),
    ("matching", {"n": 8, "b": 0}, "'alpha'"),
])
def test_generator_names_a_missing_param(kind, params, field, tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"^{kind} needs {field}$"):
        generate_graph(kind, params, 0)
    algorithm = "triangle" if kind == "gnp" else "bhm"
    with pytest.raises(ConfigError, match=f"^{kind} needs {field}$"):
        run_experiment(ExperimentConfig(algorithm, {"k": 1}, 5, 0, {"kind": kind, **params}))
    flags = [f"--{key}={value}" for key, value in params.items()]
    assert main(["gen", "--kind", kind, *flags, "--out", str(tmp_path / "x.txt")]) == 2
    assert capsys.readouterr().err == f"error: {kind} needs {field}\n"


# -- instance files ------------------------------------------------------------------


def test_parse_stream_dispatch(tmp_path):
    tri = EdgeStream(4, ((1, 2), (2, 3)))
    har = DirectedEdgeStream(4, ((1, 2), (2, 1)))
    inst, _ = generate_graph("matching", {"n": 6, "alpha": "1/3", "b": 0}, 1)
    p_tri, p_dir, p_bhm = (tmp_path / n for n in ("t.txt", "d.txt", "b.txt"))
    write_instance(tri, p_tri)
    write_instance(har, p_dir)
    write_instance(inst, p_bhm)

    assert parse_stream(p_tri, "undirected") == tri
    assert parse_stream(p_dir, "directed") == har
    # reading lists the matching in stream order, so compare it as a set
    back = parse_stream(p_bhm, "bhm")
    assert (back.n, back.alpha, back.b, back.x, back.stream) == (
        inst.n, inst.alpha, inst.b, inst.x, inst.stream
    )
    assert set(zip(back.matching, back.z)) == set(zip(inst.matching, inst.z))
    # auto sees the three-field header; a two-field header defaults to undirected
    assert parse_stream(p_bhm).stream == inst.stream
    assert isinstance(parse_stream(p_tri), EdgeStream)
    with pytest.raises(ConfigError):
        parse_stream(p_tri, "sideways")


EDGE_LIST_KINDS = {"undirected": EdgeStream, "directed": DirectedEdgeStream}


@pytest.mark.parametrize("kind", sorted(EDGE_LIST_KINDS))
def test_edge_list_file_roundtrip(tmp_path, kind):
    gnp, _ = generate_graph("gnp", {"n": 9, "p": 0.4}, 14)
    stream = EDGE_LIST_KINDS[kind](gnp.n, gnp.edges)
    path = tmp_path / "g.edges"
    write_instance(stream, path)
    assert parse_stream(path, kind) == stream


@pytest.mark.parametrize("kind", sorted(EDGE_LIST_KINDS))
def test_edge_list_parse_errors(tmp_path, kind):
    path = tmp_path / "bad.edges"
    for text, where in (
        ("3\n", ":1:"),
        ("3 2\n1 2\n", "promises 2"),
        ("3 1\n1 x\n", ":2:"),
        ("5 2\n1 2\n3 x\n", ":3:"),
        ("5 2\n1 2\n3 4 5\n", ":3:"),
        ("\n \n", "empty"),
        # the stream's own checks, named by the line that breaks them
        ("3 2\n1 2\n1 9\n", ":3: edge 2 (1, 9) leaves [1, 3]"),
        ("3 2\n1 2\n\n0 3\n", ":4: edge 2 (0, 3) leaves [1, 3]"),
        ("3 2\n1 2\n2 2\n", ":3: edge 2 is a self-loop at 2"),
        ("3 3\n1 2\n2 3\n1 2\n", ":4: edge 3 (1"),  # repeats, in either kind
        ("0 1\n1 2\n", ":1: vertex count 0 must be positive"),
        ("-2 0\n", ":1: vertex count -2 must be positive"),
    ):
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            parse_stream(path, kind)
        assert str(err.value).startswith(str(path)) and where in str(err.value)


@pytest.mark.parametrize("make, n, edges, item", [
    (EdgeStream, 4, [(1.7, 2)], 0),
    (EdgeStream, 4.5, [(1, 2)], None),
    (DirectedEdgeStream, 4, [(1, 2), (True, "2")], 1),
])
def test_edge_streams_take_integer_counts_and_endpoints_only(make, n, edges, item):
    # a float, a bool or a string is no vertex; the error names the edge at fault
    with pytest.raises(ValidationError) as err:
        make(n, edges)
    assert err.value.item == item
    # numpy integers are integers, kept as ints
    stream = make(np.int64(4), [(np.int64(1), 2), (3, np.int64(4))])
    assert (stream.n, stream.edges) == (4, ((1, 2), (3, 4)))
    assert {type(x) for x in (stream.n, *stream.edges[0], *stream.edges[1])} == {int}


def test_bhm_alpha_with_an_exponent_fails_fast(tmp_path):
    path = tmp_path / "bad.bhm"
    path.write_text("4 1e4000000 0\n")
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:1: alpha .* exponent"):
        parse_stream(path, "bhm")
    assert time.perf_counter() - start < 0.1
    for text in ("4 1E2 0\n", "4 2.5e-1 0\n"):
        path.write_text(text)
        with pytest.raises(ParseError, match=":1: alpha"):
            parse_stream(path, "bhm")


@pytest.mark.parametrize("text", ["1/4", "0.25", "1"])
def test_bhm_alpha_reads_fractions_decimals_and_integers(tmp_path, text):
    inst, _ = generate_graph("matching", {"n": 8, "alpha": "1/4", "b": 1}, 2)
    path = tmp_path / "ok.bhm"
    write_instance(inst, path)
    head, rest = path.read_text().split("\n", 1)
    n, _, b = head.split()
    path.write_text(f"{n} {text} {b}\n{rest}")
    if Fraction(text) == inst.alpha:
        assert parse_stream(path, "bhm").alpha == inst.alpha
    else:  # read as a number, then refused by the instance's own check
        with pytest.raises(ParseError, match=":1: .*alpha=1$"):
            parse_stream(path, "bhm")


@pytest.mark.parametrize("kind", ["auto", "bhm", "directed", "undirected"])
def test_non_ascii_bytes_are_parse_errors_naming_the_line(tmp_path, kind):
    path = tmp_path / "bad.txt"
    for data, where in (
        (b"3 2\n1 2\n2 \xc3\xa9\n", ":3:"),
        (b"\xff\n", ":1:"),
        (b"3 1\r\n\r\n1 \x80\n", ":3:"),
    ):
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            parse_stream(path, kind)
        assert where in str(err.value)


def test_cli_reports_a_malformed_stream_and_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"3 2\n1 2\n2 \xc3\xa9\n")
    assert main(["triangle", "--stream", str(path), "--k", "1", "--trials", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}:3:" in err


# -- reports -------------------------------------------------------------------------


def test_canonical_json_is_stable_and_typed():
    data = {"b": Fraction(229, 320), "a": [np.int64(3), np.float64(0.5)],
            "nested": {"z": 1, "y": (1, 2)}}
    text = canonical_json(data)
    assert text == canonical_json(dict(reversed(data.items())))
    assert '"229/320"' in text
    assert text.index('"a"') < text.index('"b"') < text.index('"nested"')
    with pytest.raises(ConfigError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ConfigError):
        canonical_json({"x": object()})


def test_emit_report_writes_json_and_csv(tmp_path):
    report = Report(
        schema_version=1,
        config={"algorithm": "heavy", "trials": 4, "master_seed": 1},
        results={"heavy_count": 2, "mean": 2.5, "law_mean": Fraction(2)},
        verdicts={"mean_matches_count": True},
    )
    out = tmp_path / "r.json"
    emit_report(report, out)
    emitted = out.read_bytes()
    emit_report(report, out)
    assert out.read_bytes() == emitted

    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header[:5] == ["schema_version", "algorithm", "trials", "master_seed",
                          "passed"]
    assert "verdict:mean_matches_count" in header
    assert "result:heavy_count" in header


# -- running experiments ---------------------------------------------------------------


@pytest.mark.parametrize("bad", ["x", float("nan"), float("inf"), -1.0, True])
def test_equivalence_tolerance_is_a_finite_nonnegative_number(bad):
    # the tolerance is the constant EQUIVALENCE_TOLERANCE; a value given as a param,
    # well-formed or not, is refused before it could replace it
    assert math.isfinite(EQUIVALENCE_TOLERANCE) and EQUIVALENCE_TOLERANCE >= 0
    config = ExperimentConfig("equivalence", {"universe": 3, "tolerance": bad}, 4, 0)
    with pytest.raises(ConfigError) as err:
        run_experiment(config)
    assert str(err.value) == "equivalence experiment got unknown params: ['tolerance']"


def test_equivalence_experiment_covers_subsets():
    cfg = ExperimentConfig("equivalence", {"universe": 4, "max_size": 2}, 10, 3)
    report = run_experiment(cfg)
    assert report.results["subsets_total"] == 10
    assert report.results["tolerance"] == 1e-9
    assert report.results["gates"]["max_tv_within_tolerance"]["sigma"] == 1e-9 / 4
    assert report.verdicts["every_subset_exercised"]
    assert report.verdicts["max_tv_within_tolerance"]
    assert report.results["max_tv"] <= 1e-9
    assert report.passed

    short = run_experiment(
        ExperimentConfig("equivalence", {"universe": 4, "max_size": 2}, 6, 3)
    )
    assert not short.verdicts["every_subset_exercised"]
    assert short.results["subsets_covered"] == 6
    assert not short.passed


def test_equivalence_builds_only_the_subsets_its_scripts_start_from():
    # 102,090 subsets of at most 4 of 40 ids; ten scripts start from the first ten
    cfg = ExperimentConfig("equivalence", {"universe": 40, "max_size": 4}, 10, 0)
    tracemalloc.start()
    try:
        report = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.results["subsets_total"] == 102_090
    assert report.results["subsets_covered"] == 10
    assert report.verdicts["max_tv_within_tolerance"]
    assert peak < 2 << 20


def test_triangle_experiment_is_exact_on_k3(tmp_path):
    path = tmp_path / "k3.txt"
    write_instance(EdgeStream(3, ((1, 2), (1, 3), (2, 3))), path)
    cfg = ExperimentConfig("triangle", {"k": 1}, 4000, 0, str(path))
    report = run_experiment(cfg)
    assert report.results["T"] == 1
    assert report.results["T_less"] == Fraction(1)
    assert report.results["T_greater"] == Fraction(0)
    assert report.results["law_mean"] == Fraction(1)
    assert report.verdicts["split_sums_to_t"]
    assert report.verdicts["law_mean_is_t_less"]
    assert report.passed


def test_heavy_experiment_reports_gate_numbers(tmp_path):
    path = tmp_path / "h.txt"
    write_instance(DirectedEdgeStream(4, ((1, 2), (1, 3), (1, 4), (2, 1))), path)
    cfg = ExperimentConfig("heavy", {"d_H": 2, "d_T": 1}, 4000, 8, str(path))
    report = run_experiment(cfg)
    gate = report.results["gates"]["mean_matches_count"]
    assert gate["oracle"] == report.results["heavy_count"]
    assert abs(gate["value"] - gate["oracle"]) <= 4 * gate["sigma"]
    # sigma is the exact law's standard error at 4000 trials
    law = heavy_edges.terminal_law(parse_stream(path, "directed"), 2, 1)
    var = sum(x * x * p for x, p in law.atoms.items()) - law.expect(int) ** 2
    assert gate["sigma"] == math.sqrt(var / 4000)
    assert report.passed


def test_snapshot_experiment_small(tmp_path):
    path = tmp_path / "s.txt"
    write_instance(DirectedEdgeStream(3, ((1, 2), (2, 3))), path)
    params = {"kappa": 1, "eps": "1/2", "thresholds": ["-1"], "alpha": 0,
              "beta": 0, "hash_seed": 0}
    cfg = ExperimentConfig("snapshot", params, 2000, 4, str(path))
    report = run_experiment(cfg)
    assert report.verdicts["law_matches_lemma_oracle"]
    assert report.verdicts["bias_within_nonqualifying_bound"]
    assert report.results["ell"] == 1


# The first ten edges of the 12-vertex stream that the benchmark's estimators
# workload draws for its snapshot experiment at seed 11, with criterion 7's
# settings: an instance whose law puts tiny mass on large entry values.
BENCH_SNAPSHOT = DirectedEdgeStream(
    12, ((11, 9), (4, 10), (7, 11), (9, 4), (9, 8), (3, 2), (4, 11), (11, 7), (12, 6), (9, 2))
)
SNAPSHOT_PARAMS = {"kappa": 2, "eps": "1/2", "thresholds": ["-1", "0"], "alpha": 3,
                   "beta": 1, "hash_seed": 7}


@pytest.mark.parametrize("trials", [1, 50])
def test_snapshot_entry_sigma_is_positive_exactly_where_the_law_has_mass(tmp_path, trials):
    path = tmp_path / "s.txt"
    write_instance(BENCH_SNAPSHOT, path)
    thresholds = ("-1", "-1/2", "0", "1/2")
    sp = ps.SnapshotParams(kappa=2, eps="1/2", thresholds=thresholds, class_pair=(3, 1))
    law = ps.terminal_law(
        BENCH_SNAPSHOT, ps.HashOracles(7, 2, "1/2"), ps.DegreeGrid.from_eps(12, "1/2"), sp
    )
    charged = {e for (_, e, v), p in law.atoms.items() if e is not None and v and p}
    cells = {(a, b) for a in range(4) for b in range(4)}
    assert set() < charged < cells
    params = dict(SNAPSHOT_PARAMS, thresholds=list(thresholds))
    for seed in range(5):
        report = run_experiment(ExperimentConfig("snapshot", params, trials, seed, str(path)))
        assert report.verdicts["law_matches_lemma_oracle"]
        res = report.results
        sigmas = res["entry_sigmas"]
        assert {(a, b) for a, b in cells if sigmas[a][b] > 0} == charged
        # the reported gate is the entry with the least room in its band
        def margin(cell):
            a, b = cell
            return abs(res["entry_means"][a][b] - res["expectation"][a][b]) - 4 * sigmas[a][b]

        a, b = max(sorted(cells), key=margin)
        assert res["gates"]["entry_means_match_expectation"] == {
            "oracle": res["expectation"][a][b],
            "value": res["entry_means"][a][b],
            "sigma": sigmas[a][b],
        }
        assert report.verdicts["entry_means_match_expectation"] == (margin((a, b)) <= 0)


def test_snapshot_gate_rarely_fails_at_few_trials(tmp_path):
    # an entry the draws never hit still has the law's sigma, so a rare large
    # draw in another seed's run is not judged against a zero-width band
    path = tmp_path / "s.txt"
    write_instance(BENCH_SNAPSHOT, path)
    failed = [
        seed
        for seed in range(40)
        if not run_experiment(
            ExperimentConfig("snapshot", SNAPSHOT_PARAMS, 200, seed, str(path))
        ).verdicts["entry_means_match_expectation"]
    ]
    assert len(failed) <= 1, failed


def test_missing_params_become_config_errors(tmp_path):
    path = tmp_path / "k3.txt"
    write_instance(EdgeStream(3, ((1, 2), (1, 3), (2, 3))), path)
    with pytest.raises(ConfigError) as err:
        run_experiment(ExperimentConfig("triangle", {}, 10, 0, str(path)))
    assert "'k'" in str(err.value)


def test_generated_instance_in_config():
    cfg = ExperimentConfig(
        "triangle", {"k": 2}, 500, 1,
        {"kind": "planted-triangles", "n": 9, "t": 2, "seed": 6},
    )
    report = run_experiment(cfg)
    assert report.results["T"] == 2
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig("triangle", {"k": 1}, 5, 0, {"n": 9}))


BAD_INTEGER_SPECS = [
    # (algorithm, params, generator spec, words the error must name)
    ("heavy", {"d_H": 1, "d_T": 1}, {"kind": "star"}, ("star", "'n'")),
    ("heavy", {"d_H": 1, "d_T": 1}, {"kind": "star", "n": "x"}, ("star", "'n'", "'x'")),
    ("heavy", {"d_H": 1, "d_T": 1}, {"kind": "star", "n": 3.7}, ("star", "'n'", "3.7")),
    ("heavy", {"d_H": 1, "d_T": 1}, {"kind": "star", "n": True}, ("star", "'n'", "True")),
    ("triangle", {"k": 1}, {"kind": "gnp", "n": "6", "p": 0.5}, ("gnp", "'n'")),
    ("triangle", {"k": 1}, {"kind": "planted-triangles", "n": 9}, ("planted-triangles", "'t'")),
    ("triangle", {"k": 1}, {"kind": "planted-triangles", "n": 9, "t": 1.5}, ("'t'", "1.5")),
    ("bhm", {}, {"kind": "matching", "n": 12, "alpha": "1/4", "b": "0"}, ("matching", "'b'")),
    ("bhm", {}, {"kind": "matching", "n": 12, "alpha": "1/4", "b": 0.5}, ("'b'", "0.5")),
    ("heavy", {"d_H": 1, "d_T": 1}, {"kind": "star", "n": 4, "seed": "s"}, ("star", "'seed'")),
    ("heavy", {"d_H": 1, "d_T": 1}, {"kind": "star", "n": 4, "seed": 2.5}, ("'seed'", "2.5")),
    ("heavy", {"d_H": 1, "d_T": 1}, {"kind": "star", "n": 4, "seed": None}, ("'seed'", "None")),
]


@pytest.mark.parametrize("algorithm, params, spec, words", BAD_INTEGER_SPECS)
def test_generator_integers_are_checked(algorithm, params, spec, words):
    config = ExperimentConfig.from_dict(
        {"algorithm": algorithm, "params": params, "trials": 10, "master_seed": 1, "instance": spec}
    )
    with pytest.raises(ConfigError) as err:
        run_experiment(config)
    assert all(word in str(err.value) for word in words), str(err.value)


def test_generator_takes_integral_floats_as_integers():
    def report(n, seed):
        spec = {"kind": "star", "n": n, "seed": seed}
        config = {"algorithm": "heavy", "params": {"d_H": 1, "d_T": 1}, "trials": 50,
                  "master_seed": 1, "instance": spec}
        return run_experiment(ExperimentConfig.from_dict(config)).results
    assert report(5.0, 3.0) == report(5, 3)


# Each experiment's integer params, with a tiny instance and params that run.
EXPERIMENT_PARAMS = {
    "bhm": ({"meta_trials": 2, "copies": 3},
            {"kind": "matching", "n": 12, "alpha": "1/4", "b": 0}),
    "triangle": ({"k": 2}, {"kind": "planted-triangles", "n": 6, "t": 1, "seed": 2}),
    "heavy": ({"d_H": 2, "d_T": 1}, {"kind": "star", "n": 4}),
    "snapshot": ({"kappa": 1, "eps": "1/2", "thresholds": ["-1"], "alpha": 0, "beta": 0,
                  "capacity_c": 32, "hash_seed": 0}, {"kind": "star", "n": 3}),
    "equivalence": ({"universe": 3, "max_size": 2, "max_len": 3}, None),
}
INTEGER_FIELDS = [
    (algorithm, field)
    for algorithm, (params, _) in EXPERIMENT_PARAMS.items()
    for field, value in params.items()
    if isinstance(value, int)
]


def _experiment(algorithm, **changes):
    params, spec = EXPERIMENT_PARAMS[algorithm]
    config = {"algorithm": algorithm, "params": {**params, **changes}, "trials": 20,
              "master_seed": 1}
    if spec is not None:
        config["instance"] = spec
    return run_experiment(ExperimentConfig.from_dict(config))


def test_bhm_copies_without_meta_trials_is_rejected():
    # copies sizes the majority committees; without them nothing reads it
    spec = EXPERIMENT_PARAMS["bhm"][1]
    for params in ({"copies": 5}, {"copies": 5, "meta_trials": 0}):
        config = ExperimentConfig.from_dict(
            {"algorithm": "bhm", "params": params, "trials": 20, "master_seed": 1, "instance": spec}
        )
        with pytest.raises(ConfigError, match="needs meta_trials > 0"):
            run_experiment(config)


@pytest.mark.parametrize("bad", ["x", "2", True, 1.5])
@pytest.mark.parametrize("algorithm, field", INTEGER_FIELDS)
def test_experiment_integers_are_checked(algorithm, field, bad):
    with pytest.raises(ConfigError) as err:
        _experiment(algorithm, **{field: bad})
    assert all(word in str(err.value) for word in (algorithm, repr(field), repr(bad)))


@pytest.mark.parametrize("bad", ["-1", 5, None], ids=repr)
def test_snapshot_thresholds_must_be_a_list(bad):
    # a string would split into characters, and a number is no sequence at all
    with pytest.raises(ConfigError) as err:
        _experiment("snapshot", thresholds=bad)
    assert str(err.value) == f"snapshot 'thresholds' must be a list, got {bad!r}"
    assert _experiment("snapshot", thresholds=("-1",)).passed


# One param per algorithm that its table entry does not list.
UNKNOWN_PARAMS = [
    ("bhm", "meta_trial", 1000),  # a typo of meta_trials, which would skip the vote
    ("triangle", "K", 2),
    ("heavy", "d_h", 2),
    ("snapshot", "hash-seed", 0),
    ("equivalence", "tolerance", 1e-9),  # a constant since it became one
]


@pytest.mark.parametrize("algorithm, field, value", UNKNOWN_PARAMS,
                         ids=[f"{a}-{f}" for a, f, _ in UNKNOWN_PARAMS])
def test_unknown_experiment_params_are_refused(algorithm, field, value):
    with pytest.raises(ConfigError) as err:
        _experiment(algorithm, **{field: value})
    assert str(err.value) == f"{algorithm} experiment got unknown params: [{field!r}]"


@pytest.mark.parametrize("algorithm", EXPERIMENT_PARAMS)
def test_experiments_take_integral_floats_as_integers(algorithm):
    params, _ = EXPERIMENT_PARAMS[algorithm]
    floats = {field: float(value) for field, value in params.items() if isinstance(value, int)}
    assert _experiment(algorithm, **floats).results == _experiment(algorithm).results


def test_instance_type_must_match_algorithm():
    cfg = ExperimentConfig("bhm", {}, 10, 0, {"kind": "gnp", "n": 6, "p": 0.5})
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert "BhmInstance" in str(err.value)


def test_reports_are_byte_identical_across_reruns(tmp_path):
    out = tmp_path / "rep.json"
    cfg = ExperimentConfig(
        "bhm", {"meta_trials": 40}, 5000, 77,
        {"kind": "matching", "n": 12, "alpha": "1/4", "b": 0}, str(out),
    )
    run_experiment(cfg)
    first = out.read_bytes()
    run_experiment(cfg)
    assert out.read_bytes() == first
    assert b'"schema_version": 1' in first


def test_env_variable_overrides_master_seed(tmp_path, monkeypatch):
    path = tmp_path / "k3.txt"
    write_instance(EdgeStream(3, ((1, 2), (1, 3), (2, 3))), path)
    cfg = ExperimentConfig("triangle", {"k": 1}, 20, 5, str(path))
    monkeypatch.setenv("PAIRSKETCH_SEED", "31")
    report = run_experiment(cfg)
    assert report.config["master_seed"] == 31
    monkeypatch.setenv("PAIRSKETCH_SEED", "many")
    with pytest.raises(ConfigError):
        run_experiment(cfg)


# -- command line ----------------------------------------------------------------------


def test_cli_round_trip(tmp_path, capsys):
    from pairsketch.cli import main

    stream_path = tmp_path / "g.txt"
    assert main(["gen", "--kind", "gnp", "--n", "10", "--p", "0.4",
                 "--seed", "3", "--out", str(stream_path)]) == 0
    out = tmp_path / "tri.json"
    code = main(["triangle", "--stream", str(stream_path), "--k", "2",
                 "--trials", "2000", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert out.exists() and out.with_suffix(".csv").exists()
    assert "PASS overall" in captured
    assert "oracle=" in captured and "sigma=" in captured


def test_cli_reports_failure_exit_code(capsys):
    from pairsketch.cli import main

    # six scripts cannot cover the ten nonempty subsets of size <= 2
    code = main(["equivalence", "--universe", "4", "--max-size", "2",
                 "--scripts", "6", "--seed", "0"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "FAIL every_subset_exercised" in captured


@pytest.mark.parametrize(
    "argv, seed_env",
    [
        (["snapshot", "--eps", "abc", "--thresholds=-1,0"], None),
        (["snapshot", "--eps", "1/2", "--thresholds=-1,zz"], None),
        (["bhm", "--alpha", "x"], None),
        (["bhm", "--alpha", "1e100000"], None),
        (["gen", "--kind", "gnp", "--p", "x"], None),
        (["gen", "--kind", "matching", "--alpha", "x"], None),
        (["gen", "--kind", "gnp", "--p", "1/2"], "abc"),
    ],
    ids=["eps", "thresholds", "bhm-alpha", "bhm-alpha-exponent", "gen-p", "gen-alpha", "seed-env"],
)
def test_cli_rejects_bad_numbers_and_exits_2(argv, seed_env, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PAIRSKETCH_SEED", raising=False)
    if seed_env is not None:
        monkeypatch.setenv("PAIRSKETCH_SEED", seed_env)
    if argv[0] == "snapshot":
        path = tmp_path / "d.txt"
        write_instance(DirectedEdgeStream(3, ((1, 2), (2, 3))), path)
        argv = argv + ["--stream", str(path), "--kappa", "1", "--alpha", "0", "--beta", "0"]
    elif argv[0] == "gen":
        argv = argv + ["--n", "8", "--out", str(tmp_path / "g.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_bad_input(tmp_path, capsys):
    from pairsketch.cli import main

    code = main(["triangle", "--stream", str(tmp_path / "missing.txt"),
                 "--k", "1", "--trials", "10", "--seed", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- memory of the sampled experiments ----------------------------------------------


@pytest.mark.parametrize("algorithm", ["bhm", "heavy", "snapshot", "triangle"])
def test_sampled_experiment_memory_does_not_grow_with_trials(algorithm, tmp_path, monkeypatch):
    # the draws are counted per atom, in one multinomial draw: two million
    # trials need no array of two million entries
    monkeypatch.chdir(tmp_path)
    write_instance(SNAPSHOT_STREAM, "snapshot.txt")
    config = dataclasses.replace(CONFIGS[algorithm], trials=2_000_000)
    if algorithm == "bhm":
        config = dataclasses.replace(config, params={"meta_trials": 1000})
    tracemalloc.start()
    try:
        report = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 << 20


@pytest.mark.parametrize("algorithm", ["bhm", "heavy", "snapshot", "triangle"])
def test_sampling_time_does_not_grow_with_trials(algorithm, tmp_path, monkeypatch):
    # 10**12 trials cost what 10**3 do: the counts are one draw over the atoms
    monkeypatch.chdir(tmp_path)
    write_instance(SNAPSHOT_STREAM, "snapshot.txt")
    times = []
    for trials in (10**3, 10**12, 10**3, 10**12):
        config = dataclasses.replace(CONFIGS[algorithm], trials=trials)
        start = time.perf_counter()
        report = run_experiment(config)
        times.append(time.perf_counter() - start)
        assert report.results["gates"]  # a report with its gates, whatever its verdicts
    assert min(times[1::2]) < 3 * min(times[::2]) + 0.05
