import math
import re
import tracemalloc
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from scipy import stats

from pairsketch import InvalidParamsError, ValidationError, bhm, enumerate_distribution
from pairsketch.bhm import (
    INTERLEAVINGS,
    QUERY_ORDER,
    BhmInstance,
    EdgeLabel,
    VertexBit,
    _cell,
    _flip_perm,
    bhm_universe,
    default_copies,
    generate_instance,
    initial_members,
    run_single,
    sample_majority,
    sample_outputs,
    terminal_slabs,
)
from pairsketch.cli import main
from pairsketch.errors import ParseError
from pairsketch.harness import parse_stream, write_instance
from pairsketch.permutation import PermutationSpec, SwapStage
from pairsketch.sketch import QueryOutcome, create, replay_noiseless
from tape_reference import build_script


def test_generate_instance_is_consistent():
    for interleaving in ("shuffle", "edges-first", "bits-first"):
        inst = generate_instance(8, Fraction(1, 4), 1, seed=5, interleaving=interleaving)
        assert inst.m == 2
        for (u, v), z in zip(inst.matching, inst.z):
            assert z == inst.x[u - 1] ^ inst.x[v - 1] ^ 1
        assert len(inst.stream) == 8 + 2


def test_bad_params_rejected():
    with pytest.raises(InvalidParamsError):
        generate_instance(8, Fraction(1, 3), 0, seed=1)  # alpha*n not integral
    with pytest.raises(InvalidParamsError):
        generate_instance(8, Fraction(3, 4), 0, seed=1)  # matching too large
    with pytest.raises(InvalidParamsError):
        generate_instance(8, Fraction(1, 4), 0, seed=1, interleaving="sideways")


def test_inconsistent_label_names_the_edge():
    inst = generate_instance(4, Fraction(1, 4), 0, seed=2)
    bad_z = tuple(z ^ 1 for z in inst.z)
    bad_stream = tuple(
        EdgeLabel(s.u, s.v, s.z ^ 1) if isinstance(s, EdgeLabel) else s for s in inst.stream
    )
    with pytest.raises(ValidationError) as err:
        BhmInstance(inst.n, inst.alpha, inst.matching, bad_z, inst.x, inst.b, bad_stream)
    assert str(inst.matching[0]) in str(err.value)


def test_default_copies():
    assert default_copies(Fraction(1, 4)) == 192
    assert default_copies(Fraction(1, 2)) == 96


def _majority_vote(outputs: Sequence[int | None]) -> int:
    ones = sum(1 for o in outputs if o == 1)
    zeros = sum(1 for o in outputs if o == 0)
    return 1 if ones > zeros else 0


def run_majority(inst: BhmInstance, *, master_seed: int = 0, copies: int | None = None) -> int:
    """Majority vote over independent live runs; ties and empty votes resolve to 0."""
    if copies is None:
        copies = default_copies(inst.alpha)
    outs = [run_single(inst, master_seed=master_seed, handle_id=i) for i in range(copies)]
    return _majority_vote(outs)


def test_majority_vote_resolves_ties_to_zero():
    assert _majority_vote([]) == 0
    assert _majority_vote([None, None]) == 0
    assert _majority_vote([1, 0]) == 0
    assert _majority_vote([1, 0, 1]) == 1
    assert _majority_vote([0, None, 0, 1]) == 0


def test_each_edge_probes_one_both_two_single_one_empty():
    for seed in range(4):
        inst = generate_instance(10, Fraction(2, 5), seed % 2, seed=seed)
        universe = bhm_universe(inst.n)
        ops = build_script(inst)
        meta = [tag for _, tag in ops if tag is not None]
        trace = replay_noiseless(universe, initial_members(inst.n), [op for op, _ in ops])
        per_edge: dict[int, list[int]] = {}
        for step, (ei, _, _) in zip(trace.steps, meta):
            per_edge.setdefault(ei, []).append(step.present_count)
        assert set(per_edge) == set(range(inst.m))
        for counts in per_edge.values():
            assert sorted(counts) == [0, 1, 1, 2]


def _terminal_probs(inst):
    """Aggregate the exact law into P[correct], P[wrong], P[none]."""
    agg = {True: Fraction(0), False: Fraction(0), None: Fraction(0)}
    for (_, output), p in terminal_slabs(inst).atoms.items():
        agg[None if output is None else output == inst.b] += p
    return agg


def test_exact_output_law_small_instances():
    # P[correct] = alpha, P[wrong] = alpha/2, independent of x, b, interleaving
    for n, alpha in ((2, Fraction(1, 2)), (4, Fraction(1, 4)), (6, Fraction(1, 3))):
        for seed in range(3):
            inst = generate_instance(n, alpha, seed % 2, seed=seed)
            agg = _terminal_probs(inst)
            assert agg[True] == alpha
            assert agg[False] == alpha / 2
            assert agg[None] == 1 - Fraction(3, 2) * alpha


def test_slabs_match_exhaustive_enumeration():
    inst = generate_instance(2, Fraction(1, 2), 0, seed=7, interleaving="bits-first")
    universe = bhm_universe(inst.n)
    ops = build_script(inst)
    meta = [tag for _, tag in ops if tag is not None]
    dist = enumerate_distribution(universe, initial_members(inst.n), [op for op, _ in ops])
    later = inst._later
    agg = {True: Fraction(0), False: Fraction(0), None: Fraction(0)}
    for key, p in dist.entries.items():
        out = None
        for qi, sym in enumerate(key):
            if sym == "Plus":
                ei, a, b = meta[qi]
                out = a ^ b ^ inst.z[ei] ^ later[ei]
                break
            if sym == "Minus":
                break
        agg[None if out is None else out == inst.b] += p
    assert agg == _terminal_probs(inst)
    assert agg[True] == Fraction(1, 2)
    assert agg[False] == Fraction(1, 4)


def _later_corrections_by_scan(inst):
    """Per edge, a scan of the stream after it: the reference for the backward walk."""
    out = []
    for e in inst.matching:
        pos = next(
            j
            for j, item in enumerate(inst.stream)
            if isinstance(item, EdgeLabel) and (item.u, item.v) == e
        )
        later = 0
        for item in inst.stream[pos + 1 :]:
            if isinstance(item, VertexBit) and item.v in e:
                later ^= item.bit
        out.append(later)
    return out


@pytest.mark.parametrize("interleaving", INTERLEAVINGS)
def test_later_corrections_equal_a_scan(interleaving):
    seen = set()
    for seed in range(8):
        inst = generate_instance(40, Fraction(1, 4), seed % 2, seed=seed, interleaving=interleaving)
        later = inst._later
        assert later == _later_corrections_by_scan(inst)
        seen.update(later)
    # bits-first leaves nothing to correct; the other orders flip some edges
    assert seen == ({0} if interleaving == "bits-first" else {0, 1})


def test_run_single_matches_sampler_frequencies():
    inst = generate_instance(8, Fraction(1, 4), 1, seed=11)
    trials = 3000
    live = np.array(
        [
            -1 if (o := run_single(inst, master_seed=99, handle_id=i)) is None else o
            for i in range(trials)
        ],
        dtype=np.int8,
    )
    agg = _terminal_probs(inst)
    p_correct = float(agg[True])
    freq = float(np.mean(live == inst.b))
    se = np.sqrt(p_correct * (1 - p_correct) / trials)
    assert abs(freq - p_correct) < 4 * se

    fast = sample_outputs(inst, 99, 200_000)
    p_wrong = float(agg[False])
    se_w = np.sqrt(p_wrong * (1 - p_wrong) / 200_000)
    assert abs(float(np.mean(fast == 1 - inst.b)) - p_wrong) < 4 * se_w
    assert abs(float(np.mean(fast == inst.b)) - p_correct) < 4 * np.sqrt(
        p_correct * (1 - p_correct) / 200_000
    )


def test_majority_recovers_the_hidden_bit():
    for b in (0, 1):
        inst = generate_instance(8, Fraction(1, 2), b, seed=21 + b)
        assert run_majority(inst, master_seed=5, copies=96) == b
    inst = generate_instance(12, Fraction(1, 3), 1, seed=4)
    maj = sample_majority(inst, master_seed=6, meta_trials=400)
    assert float(np.mean(maj == 1)) > 2 / 3


def _vote_one(inst, copies):
    """P(a committee of ``copies`` runs votes 1): its ones outnumber its zeros,
    summed over the trinomial of its ones, zeros and aborts."""
    law = terminal_slabs(inst)
    p1, p0, pa = (float(law.expect(lambda key: key[1] == out)) for out in (1, 0, None))
    return sum(
        math.comb(copies, ones) * math.comb(copies - ones, zeros)
        * p1**ones * p0**zeros * pa ** (copies - ones - zeros)
        for ones in range(copies + 1)
        for zeros in range(min(ones, copies - ones + 1))
    )


def _vote_one_binomial(inst, copies):
    """``_vote_one`` for any ``copies``: ``d`` of the runs decide (do not abort),
    a binomial, and the committee votes 1 when more than half of those ``d``
    are ones, a binomial of its own given ``d``."""
    law = terminal_slabs(inst)
    p1, p0 = (float(law.expect(lambda key: key[1] == out)) for out in (1, 0))
    d = np.arange(copies + 1)
    p = np.sum(stats.binom.pmf(d, copies, p1 + p0) * stats.binom.sf(d // 2, d, p1 / (p1 + p0)))
    return min(1.0, float(p))  # the float sum may round past 1


@pytest.mark.parametrize(
    "copies, meta_trials",
    [(1, 49159), (2, 9000), (193, 600), (16383, 5), (16384, 4), (16385, 3)],
)
def test_blocked_majority_equals_one_reshaped_draw_array(copies, meta_trials):
    # equal in law: the votes of the trinomial committee counts and those of
    # one array of sample_outputs draws, cut by a reshape, both sit near the
    # exact probability that a committee votes 1
    inst = generate_instance(8, Fraction(1, 4), 1, seed=5)
    got = sample_majority(inst, 13, meta_trials, copies)
    draws = sample_outputs(inst, 13, meta_trials * copies).reshape(meta_trials, copies)
    want = ((draws == 1).sum(axis=1) > (draws == 0).sum(axis=1)).astype(np.int8)
    assert got.dtype == want.dtype == np.int8 and got.shape == want.shape == (meta_trials,)
    p = _vote_one_binomial(inst, copies)
    if copies <= 193:
        assert math.isclose(p, _vote_one(inst, copies), rel_tol=1e-9, abs_tol=1e-12)
    for votes in (got, want):
        assert abs(float(votes.mean()) - p) <= 5 * math.sqrt(p * (1 - p) / meta_trials) + 1e-9


@pytest.mark.parametrize("copies, meta_trials", [(1, 49159), (2, 9000), (24, 20000), (193, 600)])
def test_majority_votes_follow_the_exact_committee_law(copies, meta_trials):
    inst = generate_instance(8, Fraction(1, 4), 1, seed=5)
    votes = sample_majority(inst, 13, meta_trials, copies)
    assert votes.dtype == np.int8 and votes.shape == (meta_trials,)
    assert set(np.unique(votes)) <= {0, 1}
    p = _vote_one(inst, copies)
    assert abs(float(votes.mean()) - p) <= 5 * math.sqrt(p * (1 - p) / meta_trials) + 1e-9
    assert np.array_equal(votes, sample_majority(inst, 13, meta_trials, copies))


@pytest.mark.parametrize("copies", [0, -3])
def test_majority_needs_at_least_one_copy(copies):
    inst = generate_instance(8, Fraction(1, 4), 1, seed=5)
    with pytest.raises(InvalidParamsError, match=f"copies must be >= 1, got {copies}"):
        sample_majority(inst, master_seed=1, meta_trials=4, copies=copies)


def _run_single_by_loop(inst, master_seed, handle_id):
    """The stream loop run_single used to be: flips and pair queries written
    out inline, and the hit's correction gathered from the rest of the stream."""
    universe = bhm_universe(inst.n)
    handle = create(
        universe, initial_members(inst.n), master_seed=master_seed, handle_id=handle_id
    )
    candidate = None
    pending = set()
    for item in inst.stream:
        if isinstance(item, VertexBit):
            if candidate is not None:
                if item.v in pending:
                    candidate ^= item.bit
            elif item.bit == 1:
                handle.update(bhm._flip_perm(universe, inst.n, item.v))
            continue
        if candidate is not None:
            continue
        for a, b in QUERY_ORDER:
            t = a ^ b
            out = handle.query_pair(
                universe.encode("cell", (a, item.u, t)),
                universe.encode("cell", (b, item.v, t)),
            )
            if out is QueryOutcome.PLUS:
                candidate = a ^ b ^ item.z
                pending = {item.u, item.v}
                break
            if out is QueryOutcome.MINUS:
                return None
    return candidate


@pytest.mark.parametrize("interleaving", INTERLEAVINGS)
def test_run_single_equals_the_stream_loop(interleaving):
    outputs = set()
    for seed in range(4):
        inst = generate_instance(8, Fraction(1, 4), seed % 2, seed=seed, interleaving=interleaving)
        for handle_id in range(60):
            out = run_single(inst, master_seed=seed, handle_id=handle_id)
            assert out == _run_single_by_loop(inst, seed, handle_id)
            outputs.add(out)
    assert outputs == {0, 1, None}


def test_live_run_builds_no_flip_after_its_hit(monkeypatch):
    # edges first: every flip comes after every query, so a run that hits
    # must stop before it builds a single flip permutation
    inst = generate_instance(8, Fraction(1, 4), 1, seed=5, interleaving="edges-first")
    built = []
    flip = bhm._flip_perm
    monkeypatch.setattr(bhm, "_flip_perm", lambda *args: built.append(args) or flip(*args))
    hits = 0
    for handle_id in range(60):
        built.clear()
        if run_single(inst, master_seed=1, handle_id=handle_id) is not None:
            hits += 1
            assert built == []
    assert hits > 0


def test_run_single_is_deterministic_per_seed():
    inst = generate_instance(8, Fraction(1, 4), 0, seed=13)
    a = [run_single(inst, master_seed=3, handle_id=i) for i in range(40)]
    b = [run_single(inst, master_seed=3, handle_id=i) for i in range(40)]
    assert a == b


def test_file_roundtrip(tmp_path):
    inst = generate_instance(8, Fraction(1, 4), 1, seed=17)
    path = tmp_path / "inst.bhm"
    write_instance(inst, path)
    back = parse_stream(path, "bhm")
    assert back == inst


def test_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.bhm"
    path.write_text("4 1/4\n")
    with pytest.raises(ParseError) as err:
        parse_stream(path, "bhm")
    assert ":1:" in str(err.value)

    path.write_text("4 1/4 0\nV 1 0\nQ 2 0\n")
    with pytest.raises(ParseError) as err:
        parse_stream(path, "bhm")
    assert ":3:" in str(err.value)

    path.write_text("4 1/4 0\nV 1 zero\n")
    with pytest.raises(ParseError) as err:
        parse_stream(path, "bhm")
    assert ":2:" in str(err.value)

    for body, line, why in (
        ("V 1 0\nV 5 0\n", 3, "outside [1, 4]"),
        ("V 1 0\nV 2 1\nV 1 1\n", 4, "second bit line"),
        ("V 1 5\n", 2, "5 is not a bit"),
        ("V 1 0\nE 1 2 3\n", 3, "3 is not a bit"),
        ("V 1 0\nE 1 9 0\n", 3, "(1, 9) is not a vertex pair in [1, 4]"),
        ("E 0 2 0\n", 2, "(0, 2) is not a vertex pair"),
        ("V 1 0\nE 2 2 0\n", 3, "(2, 2) is not a vertex pair"),
        ("E 1 2 0\nV 1 0\nE 3 2 1\n", 4, "vertex 2 already matched on line 2"),
        ("E 1 2 0\nE 1 2 0\n", 3, "vertex 1 already matched on line 2"),
        # labels are checked against the V bits and b once the file is read
        ("V 1 1\nV 2 0\nV 3 0\nE 1 2 0\nV 4 0\n", 5, "(1, 2) has label 0, inconsistent"),
    ):
        path.write_text("4 1/4 0\n" + body)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: .*{re.escape(why)}"):
            parse_stream(path, "bhm")


def test_header_and_edge_count_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.bhm"
    bits = "V 1 0\nV 2 0\nV 3 0\nV 4 0\n"
    for text, where, why in (
        # one line at fault: the header
        ("4 1/4 2\n" + bits, ":1:", "hidden bit 2 is not a bit"),
        ("4 3/4 0\n" + bits, ":1:", "need alpha*n a positive integer"),
        ("4 1/3 0\n" + bits, ":1:", "need alpha*n a positive integer"),
        ("0 1/4 0\n", ":1:", "need alpha*n a positive integer"),
        # alpha*n against the number of E lines: no one line is at fault
        ("4 1/4 0\n" + bits, ":", "expected 1 matching edges"),
        ("4 1/2 0\n" + bits + "E 1 2 0\n", ":", "expected 2 matching edges"),
    ):
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            parse_stream(path, "bhm")
        assert str(err.value).startswith(f"{path}{where} ") and why in str(err.value)


def test_missing_vertex_check_memory_is_bounded_by_the_file(tmp_path):
    # the header alone promises 4 million vertices; the scan for the first
    # missing one must look at the listed vertices, not at all n
    path = tmp_path / "huge.bhm"
    path.write_text("4000000 1/4 0\nV 1 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="vertex 2$"):
            parse_stream(path, "bhm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "flags", [["--meta-trials", "5", "--copies", "-1"], ["--meta-trials", "-5"]]
)
def test_cli_rejects_bad_committee_params(flags, capsys):
    argv = ["bhm", "--n", "16", "--alpha", "1/4", "--trials", "100", *flags]
    assert main(argv) == 2
    assert "error: need meta_trials >= 0 and copies >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "copies, message",
    [("-1", "need meta_trials >= 0 and copies >= 1"), ("5", "needs meta_trials > 0")],
    ids=["negative", "positive"],
)
def test_cli_rejects_copies_without_committees(copies, message, capsys):
    argv = ["bhm", "--n", "16", "--alpha", "1/4", "--trials", "100", "--copies", copies]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_missing_vertex_bit_is_a_validation_error(tmp_path):
    inst = generate_instance(4, Fraction(1, 4), 0, seed=23)
    path = tmp_path / "short.bhm"
    write_instance(inst, path)
    lines = path.read_text().splitlines()
    dropped = [ln for ln in lines if not ln.startswith("V 2 ")]
    path.write_text("\n".join(dropped) + "\n")
    with pytest.raises(ValidationError):
        parse_stream(path, "bhm")


# -- arithmetic cell ids against the validating encoder ---------------------------


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cell_ids_equal_the_universe_encoding(n):
    universe = bhm_universe(n)
    for v in range(1, n + 1):
        for a in (0, 1):
            for t in (0, 1):
                assert _cell(n, a, v, t) == universe.encode("cell", (a, v, t))
    assert list(initial_members(n)) == [
        universe.encode("cell", (0, v, t)) for v in range(1, n + 1) for t in (0, 1)
    ]


def _encoded_protocol_ops(inst):
    """The protocol's operations built with ``UniverseSpec.encode``, one id at a time."""
    universe = bhm_universe(inst.n)

    def cell(*values):
        return universe.encode("cell", values)

    edge_index = {e: i for i, e in enumerate(inst.matching)}
    for item in inst.stream:
        if isinstance(item, VertexBit):
            if item.bit == 1:
                pairs = tuple((cell(0, item.v, t), cell(1, item.v, t)) for t in (0, 1))
                yield PermutationSpec(universe, (SwapStage(pairs),)), None
        else:
            for a, b in QUERY_ORDER:
                pair = cell(a, item.u, a ^ b), cell(b, item.v, a ^ b)
                yield pair, (edge_index[(item.u, item.v)], a, b)


@pytest.mark.parametrize("interleaving", INTERLEAVINGS)
def test_protocol_ops_equal_an_encoded_reference(interleaving):
    inst = generate_instance(12, Fraction(1, 4), 1, seed=8, interleaving=interleaving)
    ops = []  # each edge's query group, one (x, y) per query, beside its tags
    for item in inst._tape:
        assert len(item) <= 1  # a vertex flips or not; an edge is one group
        for op, tags in item:
            if tags is None:
                ops.append((op, None))
                continue
            assert op.universe is inst._tape.universe and len(op.xs) == len(tags) == 4
            ops += zip(zip(op.xs, op.ys), tags)
    assert ops == list(_encoded_protocol_ops(inst))
    assert _flip_perm(bhm_universe(inst.n), inst.n, 3) == PermutationSpec(
        bhm_universe(inst.n), (SwapStage(((4, 28), (5, 29))),)
    )
