from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsketch import (
    Block,
    IntRange,
    InvalidInitError,
    InvalidQueryError,
    QueryOne,
    QueryPair,
    ScriptError,
    TooLargeError,
    UniverseSpec,
    Update,
    enumerate_distribution,
    qs_apply_permutation,
    qs_create,
    swap_perm,
)
from pairsketch.qsim import _branches_one, _branches_pair
from pairsketch.sketch import fire_probs, replay_noiseless
from permutation_reference import permute_set
from test_sketch import GRID, grid_scripts

EIGHT = UniverseSpec((Block("v", (IntRange(1, 8),)),))


def vid(v):
    return EIGHT.encode("v", (v,))


# -- worked single-query examples, pinned exactly ------------------------------


def test_single_query_on_three_members():
    dist = enumerate_distribution(EIGHT, [vid(2), vid(3), vid(4)], [QueryOne(vid(4))])
    assert dist.entries == {
        ("In",): Fraction(1, 3),
        ("Bot",): Fraction(2, 3),
    }
    q = enumerate_distribution(EIGHT, [vid(2), vid(3), vid(4)], [QueryOne(vid(4))], "quantum")
    assert abs(q.prob(("In",)) - 1 / 3) < 1e-12
    assert abs(q.prob(("Bot",)) - 2 / 3) < 1e-12


def test_pair_query_exactly_the_member_pair_is_certain():
    for backend in ("stochastic", "quantum"):
        dist = enumerate_distribution(
            EIGHT, [vid(2), vid(3)], [QueryPair(vid(2), vid(3))], backend
        )
        assert abs(dist.prob(("Plus",)) - 1.0) < 1e-12
        assert set(dist.entries) == {("Plus",)}


def test_pair_query_with_one_endpoint_present():
    members = [vid(1), vid(2), vid(4)]
    script = [QueryPair(vid(2), vid(3))]
    dist = enumerate_distribution(EIGHT, members, script)
    assert dist.entries == {
        ("Plus",): Fraction(1, 6),
        ("Minus",): Fraction(1, 6),
        ("Bot",): Fraction(2, 3),
    }
    q = enumerate_distribution(EIGHT, members, script, "quantum")
    assert abs(q.prob(("Plus",)) - 1 / 6) < 1e-12
    assert abs(q.prob(("Minus",)) - 1 / 6) < 1e-12
    assert abs(q.prob(("Bot",)) - 2 / 3) < 1e-12


def test_miss_state_is_uniform_over_the_rest():
    sv = qs_create(EIGHT, [vid(1), vid(2), vid(4)])
    branches = {o: (p, nxt) for o, p, nxt in _branches_pair(sv, vid(2), vid(3))}
    from pairsketch import QueryOutcome

    p_bot, after = branches[QueryOutcome.BOT]
    assert abs(p_bot - 2 / 3) < 1e-12
    expect = np.zeros(8)
    expect[vid(1)] = expect[vid(4)] = 1 / np.sqrt(2)
    assert np.allclose(after.amps, expect, atol=1e-12)


# -- projector algebra ---------------------------------------------------------


def test_pair_projectors_are_orthogonal_idempotent_and_sum_to_span():
    x, y = vid(2), vid(5)
    ex = np.zeros(8)
    ey = np.zeros(8)
    ex[x] = 1.0
    ey[y] = 1.0
    plus = (ex + ey) / np.sqrt(2)
    minus = (ex - ey) / np.sqrt(2)
    p_plus = np.outer(plus, plus)
    p_minus = np.outer(minus, minus)
    assert np.allclose(p_plus @ p_plus, p_plus, atol=1e-12)
    assert np.allclose(p_minus @ p_minus, p_minus, atol=1e-12)
    assert np.allclose(p_plus @ p_minus, np.zeros((8, 8)), atol=1e-12)
    span = np.outer(ex, ex) + np.outer(ey, ey)
    assert np.allclose(p_plus + p_minus, span, atol=1e-12)


def test_branch_probabilities_match_projector_norms():
    sv = qs_create(EIGHT, [vid(1), vid(2), vid(4)])
    x, y = vid(2), vid(3)
    amps = sv.amps.real
    plus = np.zeros(8)
    plus[x] = plus[y] = 1 / np.sqrt(2)
    minus = np.zeros(8)
    minus[x], minus[y] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    from pairsketch import QueryOutcome

    branches = {o: p for o, p, _ in _branches_pair(sv, x, y)}
    assert abs(branches[QueryOutcome.PLUS] - np.dot(plus, amps) ** 2) < 1e-12
    assert abs(branches[QueryOutcome.MINUS] - np.dot(minus, amps) ** 2) < 1e-12


# -- permutations and unitarity -------------------------------------------------


def test_apply_permutation_moves_amplitudes():
    sv = qs_create(EIGHT, [vid(1), vid(2)])
    sv2 = qs_apply_permutation(sv, swap_perm(EIGHT, (vid(1), vid(7))))
    assert abs(sv2.amps[vid(7)] - 1 / np.sqrt(2)) < 1e-12
    assert abs(sv2.amps[vid(1)]) < 1e-12
    assert abs(sv2.norm_sq() - 1.0) < 1e-12


# -- guards ---------------------------------------------------------------------


def test_enumeration_guards():
    big = UniverseSpec((Block("v", (IntRange(0, 2**16),)),))
    with pytest.raises(TooLargeError):
        enumerate_distribution(big, [0], [QueryOne(0)])
    with pytest.raises(TooLargeError):
        enumerate_distribution(EIGHT, [0], [QueryOne(0)] * 13)


# -- backend equivalence --------------------------------------------------------


@st.composite
def small_scripts(draw):
    ops = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            a = draw(st.integers(0, 7))
            b = draw(st.integers(0, 7).filter(lambda v: v != a))
            ops.append(Update(swap_perm(EIGHT, (a, b))))
        elif kind == 1:
            ops.append(QueryOne(draw(st.integers(0, 7))))
        else:
            a = draw(st.integers(0, 7))
            b = draw(st.integers(0, 7).filter(lambda v: v != a))
            ops.append(QueryPair(a, b))
    return ops


@settings(max_examples=120, deadline=None)
@given(st.sets(st.integers(0, 7), min_size=1, max_size=5), small_scripts())
def test_backends_agree_in_total_variation(members, script):
    classical = enumerate_distribution(EIGHT, sorted(members), script)
    quantum = enumerate_distribution(EIGHT, sorted(members), script, "quantum")
    assert classical.tv(quantum) <= 1e-9


# -- stochastic backend vs the frozenset branch walk ----------------------------


def _reference_branch_walk(universe, members, script):
    """Exact outcome law by walking every branch over frozenset member sets.

    This was the stochastic backend before it became the noiseless replay
    plus the fire law. It only validates the ops it reaches.
    """
    ids = frozenset(members)
    out = {}

    def record(prefix, p):
        out[prefix] = out.get(prefix, Fraction(0)) + p

    stack = [(ids, Fraction(1), 0, ())]
    while stack:
        current, p, i, prefix = stack.pop()
        if i == len(script):
            record(prefix, p)
            continue
        op = script[i]
        if isinstance(op, Update):
            assert op.perm.universe == universe
            stack.append((frozenset(permute_set(op.perm, set(current))), p, i + 1, prefix))
        elif isinstance(op, QueryOne):
            assert universe.contains_id(op.x)
            n = len(current)
            if n and op.x in current:
                record(prefix + ("In",), p * Fraction(1, n))
                if n > 1:
                    stack.append((current - {op.x}, p * Fraction(n - 1, n), i + 1, prefix + ("Bot",)))
            else:
                stack.append((current, p, i + 1, prefix + ("Bot",)))
        else:
            assert universe.contains_id(op.x) and universe.contains_id(op.y) and op.x != op.y
            n = len(current)
            in_x = op.x in current
            in_y = op.y in current
            if in_x and in_y:
                record(prefix + ("Plus",), p * Fraction(2, n))
                if n > 2:
                    stack.append(
                        (current - {op.x, op.y}, p * Fraction(n - 2, n), i + 1, prefix + ("Bot",))
                    )
            elif in_x or in_y:
                record(prefix + ("Plus",), p * Fraction(1, 2 * n))
                record(prefix + ("Minus",), p * Fraction(1, 2 * n))
                if n > 1:
                    stack.append(
                        (current - {op.x, op.y}, p * Fraction(n - 1, n), i + 1, prefix + ("Bot",))
                    )
            else:
                stack.append((current, p, i + 1, prefix + ("Bot",)))
    return out


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 7), min_size=1, max_size=6), small_scripts())
def test_stochastic_backend_equals_branch_walk_on_eight(members, script):
    dist = enumerate_distribution(EIGHT, sorted(members), script)
    assert dist.entries == _reference_branch_walk(EIGHT, members, script)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(0, GRID.size - 1), min_size=1, max_size=12), grid_scripts())
def test_stochastic_backend_equals_branch_walk_on_grid(members, script):
    dist = enumerate_distribution(GRID, sorted(members), script)
    assert dist.entries == _reference_branch_walk(GRID, members, script)


def _fire_probs_reference(universe, members, script):
    """The outcome law summed from ``fire_probs`` over the noiseless replay's
    steps: the query after k others fires o with its ``fire_probs`` at |T0|,
    and a positive survival goes to the all-Bot sequence last."""
    trace = replay_noiseless(universe, members, script)
    out = {}
    for k, step in enumerate(trace.steps):
        size = trace.steps[0].size_before
        for outcome, p in fire_probs(step.kind == "pair", step.present_count, size):
            out[("Bot",) * k + (outcome.value,)] = p
    if trace.survival:
        out[("Bot",) * len(trace.steps)] = trace.survival
    return out


def _same_entries(dist, want):
    """Keys, order and Fractions all agree."""
    assert list(dist.entries.items()) == list(want.items())
    assert all(type(p) is Fraction for p in dist.entries.values())


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 7), min_size=1, max_size=6), small_scripts())
def test_stochastic_backend_equals_the_fire_probs_sum_on_eight(members, script):
    dist = enumerate_distribution(EIGHT, sorted(members), script)
    _same_entries(dist, _fire_probs_reference(EIGHT, sorted(members), script))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, GRID.size - 1), min_size=1, max_size=12), grid_scripts())
def test_stochastic_backend_equals_the_fire_probs_sum_on_grid(members, script):
    dist = enumerate_distribution(GRID, sorted(members), script)
    _same_entries(dist, _fire_probs_reference(GRID, sorted(members), script))


@pytest.mark.parametrize("script", [
    [QueryPair(0, 1), QueryPair(2, 3)],
    [QueryOne(3), Update(swap_perm(EIGHT, (0, 5))), QueryPair(5, 1), QueryOne(2)],
    [QueryPair(4, 0), QueryPair(1, 2), QueryOne(0), QueryOne(3), QueryPair(6, 7)],
])
def test_stochastic_backend_drops_a_zero_survival(script):
    # every member is queried away, so no run survives the script
    members = [0, 1, 2, 3]
    assert replay_noiseless(EIGHT, members, script).survival == 0
    dist = enumerate_distribution(EIGHT, members, script)
    _same_entries(dist, _fire_probs_reference(EIGHT, members, script))
    assert dist.entries == _reference_branch_walk(EIGHT, members, script)
    assert all(key[-1] != "Bot" for key in dist.entries)


def test_whittled_to_one_member_fires_with_certainty():
    for script, want in (
        ([QueryOne(vid(1)), QueryOne(vid(2)), QueryOne(vid(3))],
         {("In",): Fraction(1, 2), ("Bot", "In"): Fraction(1, 2)}),
        ([QueryOne(vid(1)), QueryPair(vid(2), vid(5))],
         {("In",): Fraction(1, 2), ("Bot", "Plus"): Fraction(1, 4),
          ("Bot", "Minus"): Fraction(1, 4)}),
    ):
        members = [vid(1), vid(2)]
        dist = enumerate_distribution(EIGHT, members, script)
        assert dist.entries == want == _reference_branch_walk(EIGHT, members, script)


def test_queries_on_an_emptied_store():
    # the pair empties the store and fires with certainty; the replay goes on
    # querying the empty store, whose queries carry no fire atoms
    members = [vid(1), vid(2)]
    script = [QueryPair(vid(1), vid(2)), QueryOne(vid(1)), QueryPair(vid(3), vid(2))]
    dist = enumerate_distribution(EIGHT, members, script)
    assert dist.entries == {("Plus",): Fraction(1)}
    assert dist.entries == _reference_branch_walk(EIGHT, members, script)


def test_ops_after_a_certain_fire_are_still_validated():
    # a run never reaches the second query, and the branch walk never looks at
    # it; both backends validate the whole script anyway
    members = [vid(1)]
    script = [QueryOne(vid(1)), QueryOne(99)]
    assert _reference_branch_walk(EIGHT, members, script) == {("In",): Fraction(1)}
    for backend in ("stochastic", "quantum"):
        with pytest.raises(InvalidQueryError, match="99"):
            enumerate_distribution(EIGHT, members, script, backend)
        with pytest.raises(InvalidQueryError, match="must differ"):
            enumerate_distribution(
                EIGHT, members, [QueryOne(vid(1)), QueryPair(vid(2), vid(2))], backend
            )
        with pytest.raises(ScriptError):
            enumerate_distribution(
                EIGHT, members, [QueryOne(vid(1)), Update(swap_perm(GRID, (0, 1)))], backend
            )


@pytest.mark.parametrize("backend", ["stochastic", "quantum"])
def test_repeated_members_are_rejected(backend):
    with pytest.raises(InvalidInitError):
        enumerate_distribution(EIGHT, [1, 1, 2], [QueryOne(1)], backend)

