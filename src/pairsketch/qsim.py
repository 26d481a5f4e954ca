"""State-vector backend and exact outcome-distribution enumeration.

The quantum view of a sketch over universe U is the unit vector
``(1/sqrt(|T|)) * sum_{t in T} |t>``. Permutation updates act as permutation
matrices. A single query at x measures with the rank-1 projector |x><x|; a
pair query at (x, y) measures with the two projectors onto
``(|x> +- |y>)/sqrt(2)``. The Bot outcome is the complement: it zeroes the
queried coordinates and renormalizes.

``enumerate_distribution`` returns the distribution over outcome sequences
of a script under either the stochastic member-set semantics (exact
rationals) or the state-vector semantics (floats). The stochastic backend is
``sketch.replay_law``, the exact fold every estimator law uses, keyed by
outcome sequence: since a fire ends the run and misses delete
deterministically, one all-miss trajectory yields every outcome sequence.
The quantum backend walks every measurement branch of the state vector
independently of that law. The two
backends agree to within numerical error; the equivalence tests pin that
down to total-variation 1e-9.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    InvalidInitError,
    InvariantError,
    ScriptError,
    TooLargeError,
)
from .permutation import PermutationSpec
from .sketch import (
    QueryOne,
    QueryOutcome,
    QueryPair,
    ScriptOp,
    Tape,
    Update,
    _check_query,
    replay_law,
    script_items,
)
from .universe import UniverseSpec

#: Branches thinner than this are dropped by the float backend.
PRUNE_EPS = 1e-12

MAX_UNIVERSE = 2**16
MAX_SCRIPT = 12


@dataclass(frozen=True)
class StateVector:
    universe: UniverseSpec
    amps: np.ndarray  # complex128, length == universe.size

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def qs_create(universe: UniverseSpec, members) -> StateVector:
    ids = list(members)
    if not ids:
        raise InvalidInitError("initial member set is empty")
    if len(set(ids)) != len(ids):
        raise InvalidInitError("initial member ids repeat")
    amps = np.zeros(universe.size, dtype=np.complex128)
    for eid in ids:
        if not universe.contains_id(eid):
            raise InvalidInitError(f"member id {eid!r} outside universe")
        amps[eid] = 1.0
    amps /= np.sqrt(len(ids))
    return StateVector(universe, amps)


def qs_apply_permutation(sv: StateVector, perm: PermutationSpec) -> StateVector:
    if perm.universe != sv.universe:
        raise ScriptError("permutation universe does not match state universe")
    mapping = perm.as_mapping_array()
    out = np.zeros_like(sv.amps)
    out[mapping] = sv.amps
    return StateVector(sv.universe, out)


def _branches_one(sv: StateVector, x: int) -> list[tuple[QueryOutcome, float, StateVector | None]]:
    _check_query(len(sv.amps), x)
    p_in = float(abs(sv.amps[x]) ** 2)
    branches: list[tuple[QueryOutcome, float, StateVector | None]] = []
    if p_in > PRUNE_EPS:
        branches.append((QueryOutcome.IN, p_in, None))
    rest = sv.amps.copy()
    rest[x] = 0.0
    p_bot = float(np.vdot(rest, rest).real)
    if p_bot > PRUNE_EPS:
        branches.append((QueryOutcome.BOT, p_bot, StateVector(sv.universe, rest / np.sqrt(p_bot))))
    return branches


def _branches_pair(
    sv: StateVector, x: int, y: int
) -> list[tuple[QueryOutcome, float, StateVector | None]]:
    _check_query(len(sv.amps), x, y)
    a, b = sv.amps[x], sv.amps[y]
    p_plus = float(abs(a + b) ** 2) / 2.0
    p_minus = float(abs(a - b) ** 2) / 2.0
    branches: list[tuple[QueryOutcome, float, StateVector | None]] = []
    if p_plus > PRUNE_EPS:
        branches.append((QueryOutcome.PLUS, p_plus, None))
    if p_minus > PRUNE_EPS:
        branches.append((QueryOutcome.MINUS, p_minus, None))
    rest = sv.amps.copy()
    rest[x] = 0.0
    rest[y] = 0.0
    p_bot = float(np.vdot(rest, rest).real)
    if p_bot > PRUNE_EPS:
        branches.append((QueryOutcome.BOT, p_bot, StateVector(sv.universe, rest / np.sqrt(p_bot))))
    return branches


# -- exact enumeration -------------------------------------------------------

Probability = Union[Fraction, float]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Distribution over outcome sequences (one symbol per executed query)."""

    entries: Mapping[tuple[str, ...], Probability]

    def total(self) -> float:
        return float(sum(float(p) for p in self.entries.values()))

    def prob(self, key: tuple[str, ...]) -> float:
        return float(self.entries.get(key, 0))

    def tv(self, other: "OutcomeDistribution") -> float:
        keys = set(self.entries) | set(other.entries)
        return 0.5 * sum(abs(self.prob(k) - other.prob(k)) for k in keys)


def enumerate_distribution(
    universe: UniverseSpec,
    members,
    script: Sequence[ScriptOp],
    backend: str = "stochastic",
) -> OutcomeDistribution:
    """Exact distribution over outcome sequences of ``script``.

    Guarded: universes above 2**16 elements or scripts above 12 ops raise
    ``TooLargeError``. The stochastic backend returns exact ``Fraction``
    probabilities; the quantum backend returns floats with branches below
    1e-12 pruned, so its total mass can fall short by at most that much per
    branch.
    """
    if universe.size > MAX_UNIVERSE:
        raise TooLargeError(f"universe size {universe.size} exceeds {MAX_UNIVERSE}")
    if len(script) > MAX_SCRIPT:
        raise TooLargeError(f"script length {len(script)} exceeds {MAX_SCRIPT}")
    if backend == "stochastic":
        dist = _enumerate_stochastic(universe, members, script)
    elif backend == "quantum":
        dist = _enumerate_quantum(universe, members, script)
    else:
        raise ScriptError(f"unknown backend {backend!r}")
    if abs(dist.total() - 1.0) >= 1e-9:
        raise InvariantError(f"enumeration lost probability mass: total {dist.total()}")
    return dist


def _enumerate_stochastic(universe, members, script) -> OutcomeDistribution:
    """``replay_law`` with sequence keys: a fire ends the run, so a query after
    k others firing o is the sequence of k Bots and o, and the all-miss
    sequence carries the survival probability, kept only when positive."""
    tagged, k = [], 0
    for op in script:
        tagged.append((op, k))
        k += not isinstance(op, Update)
    end = ("Bot",) * k
    law = replay_law(Tape(
        universe, members, script_items(universe, tagged),
        lambda before, outcome: ("Bot",) * before + (outcome.value,), end,
    ))
    out = dict(law.atoms)
    if not out[end]:
        del out[end]
    return OutcomeDistribution(out)


def _enumerate_quantum(universe, members, script) -> OutcomeDistribution:
    """Walk every measurement branch; the whole script is validated first, as
    the replay validates it, so ops that no branch reaches are checked too."""
    sv0 = qs_create(universe, members)
    size = universe.size
    for op in script:
        if isinstance(op, Update):
            if op.perm.universe != universe:
                raise ScriptError("permutation universe does not match state universe")
        elif isinstance(op, QueryOne):
            _check_query(size, op.x)
        elif isinstance(op, QueryPair):
            _check_query(size, op.x, op.y)
        else:
            raise ScriptError(f"unknown script op {op!r}")
    out: dict[tuple[str, ...], float] = {}

    def record(prefix: tuple[str, ...], p: float) -> None:
        out[prefix] = out.get(prefix, 0.0) + p

    stack = [(sv0, 1.0, 0, ())]
    while stack:
        sv, p, i, prefix = stack.pop()
        if i == len(script):
            record(prefix, p)
            continue
        op = script[i]
        if isinstance(op, Update):
            stack.append((qs_apply_permutation(sv, op.perm), p, i + 1, prefix))
            continue
        if isinstance(op, QueryOne):
            branches = _branches_one(sv, op.x)
        else:
            branches = _branches_pair(sv, op.x, op.y)
        for outcome, q, nxt in branches:
            pq = p * q
            if pq <= PRUNE_EPS:
                continue
            if outcome.fires():
                record(prefix + (outcome.value,), pq)
            else:
                stack.append((nxt, pq, i + 1, prefix + (outcome.value,)))
    return OutcomeDistribution(out)
