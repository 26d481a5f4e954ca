"""Pair-sampling sketches: destructive randomized summaries of a member set.

A sketch summarizes a subset T of a finite universe. Permutation updates
relabel T deterministically. Queries are destructive and randomized:

* ``query_one(x)`` with x in T fires ``In`` with probability 1/|T| and
  destroys the sketch; otherwise it reports ``Bot`` and deletes x from T.
  With x outside T it reports ``Bot`` and changes nothing.
* ``query_pair(x, y)`` with both endpoints in T fires ``Plus`` with
  probability 2/|T|; on a miss both endpoints are deleted. With exactly one
  endpoint in T it fires ``Plus`` or ``Minus`` with probability 1/(2|T|)
  each; on a miss the present endpoint is deleted. With neither endpoint in
  T it reports ``Bot`` and changes nothing.

|T| above always means the size at the moment of the query. Once a query
fires, the handle is destroyed and every further operation raises
``SketchDestroyedError``. A sketch whose member set has been whittled down to
nothing keeps answering ``Bot``.

``FIRE_LAW`` states these rules once; the live handle, the noiseless replay
and every exact estimator law read it from there (``fire_probs``).

The useful consequence of these laws is reorderability: misses delete
deterministically, so the member set conditioned on "no fire yet" is exactly
the set a noiseless replay produces, and the unconditional probability that a
given query fires depends only on the initial size and its presence pattern.
``replay_noiseless`` exposes that deterministic trajectory,
``ReplayTrace.fire_atoms`` the resulting fire probabilities, and
``replay_law`` gathers them into one exact ``Law`` of a script's outcomes.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import (
    InvalidInitError,
    InvalidParamsError,
    InvalidQueryError,
    InvariantError,
    ScriptError,
    SketchDestroyedError,
)
from .permutation import PermutationSpec, _CompiledShift
from .universe import UniverseSpec


class QueryOutcome(enum.Enum):
    BOT = "Bot"
    IN = "In"
    PLUS = "Plus"
    MINUS = "Minus"

    def fires(self) -> bool:
        return self is not QueryOutcome.BOT

    @property
    def sign(self) -> int:
        """+1 for Plus, -1 for Minus, 0 otherwise."""
        return 1 if self is QueryOutcome.PLUS else -1 if self is QueryOutcome.MINUS else 0


#: The query law. (pair query?, present endpoint count) -> (scale, atoms): with
#: |T| members before the query, each atom (outcome, weight) fires with
#: probability weight / (scale * |T|); otherwise the query misses and deletes
#: its present endpoints.
FIRE_LAW: dict[tuple[bool, int], tuple[int, tuple[tuple[QueryOutcome, int], ...]]] = {
    (False, 0): (1, ()),
    (False, 1): (1, ((QueryOutcome.IN, 1),)),
    (True, 0): (1, ()),
    (True, 1): (2, ((QueryOutcome.PLUS, 1), (QueryOutcome.MINUS, 1))),
    (True, 2): (1, ((QueryOutcome.PLUS, 2),)),
}


def fire_probs(pair: bool, present: int, size: int) -> Iterator[tuple[QueryOutcome, Fraction]]:
    """(outcome, probability) for each way a query fires at |T| = ``size``."""
    scale, atoms = FIRE_LAW[pair, present]
    for outcome, weight in atoms:
        yield outcome, Fraction(weight, scale * size)


@dataclass(frozen=True)
class Law:
    """Exact finite output law: ``atoms`` maps each outcome key to a Fraction.

    The atoms keep their insertion order, which fixes how ``sample`` maps
    draws to atoms. Construction raises ``InvariantError`` unless the mass is
    exactly one.
    """

    atoms: dict

    def __post_init__(self) -> None:
        mass = sum(self.atoms.values(), Fraction(0))
        if mass != 1:
            raise InvariantError(f"law carries mass {mass}, not 1")

    def expect(self, f: Callable) -> Fraction:
        """E[f(key)], exactly; atoms where f is zero cost no Fraction arithmetic."""
        return sum((v * p for key, p in self.atoms.items() if (v := f(key))), Fraction(0))

    def sample(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """Indices, in ``atoms`` order, of ``trials`` independent draws.

        The cumulative bounds from the last positive atom on are pinned to 1,
        so float rounding in the probabilities can never leave a draw on a
        zero-mass atom after it or past the final atom.
        """
        if trials < 0:
            raise InvalidParamsError(f"trials must be >= 0, got {trials}")
        cum = np.cumsum([float(p) for p in self.atoms.values()])
        cum[max(k for k, p in enumerate(self.atoms.values()) if p):] = 1.0
        return np.searchsorted(cum, rng.random(trials), side="right")


def _check_query(size: int, *endpoints: int) -> None:
    """Raise unless every endpoint is an int id below ``size`` and a pair's differ.

    Callers read ``universe.size`` once and pass it in.
    """
    for eid in endpoints:
        if not (isinstance(eid, int) and not isinstance(eid, bool) and 0 <= eid < size):
            raise InvalidQueryError(f"query endpoint {eid!r} outside universe")
    if len(endpoints) == 2 and endpoints[0] == endpoints[1]:
        raise InvalidQueryError(f"pair query endpoints must differ, got {endpoints[0]} twice")


class _MemberStore:
    """A set of member ids, held flat in ``ids``, with lazy cyclic shifts.

    The first cyclic shift to touch a block buckets its members by line in
    one scan of ``ids``: ``buckets`` maps the first id of each nonempty cyclic
    line (see ``pairsketch.universe``) to its stored ids. A shift only adds
    its amount to the pending rotation ``rot`` of each nonempty line it names;
    while line L of length ``mod`` has rotation r, member ``eid`` is stored
    at ``L + (eid - L - r) % mod``, the id swaps and queries address.
    ``settle`` rewrites each pending line once. Construction raises
    ``InvalidInitError`` on an empty, repeated or out-of-universe member set.
    """

    __slots__ = ("_layouts", "_indexed", "buckets", "rot", "ids")

    def __init__(self, universe: UniverseSpec, members: Iterable[int]) -> None:
        self._layouts = universe.layout()
        self._indexed: tuple[tuple[int, int, int], ...] = ()  # (offset, end, mod) per block
        self.buckets: dict[int, set[int]] = {}
        self.rot: dict[int, int] = {}
        if isinstance(members, range) and members.step == 1 and members:
            for eid in (members.start, members.stop - 1):  # as the per-id loop rejects
                if not universe.contains_id(eid):
                    bad = eid if eid == members.start else universe.size
                    raise InvalidInitError(f"member id {bad!r} outside universe")
            self.ids = set(members)
        else:
            self.ids = ids = set()
            for eid in members:
                if not universe.contains_id(eid):
                    raise InvalidInitError(f"member id {eid!r} outside universe")
                if eid in ids:
                    raise InvalidInitError(f"member id {eid} repeated")
                ids.add(eid)
        if not self.ids:
            raise InvalidInitError("initial member set is empty")

    def _where(self, eid: int) -> tuple[int, int | None]:
        """(stored id, line or None if its block has no buckets) of ``eid``."""
        for offset, end, mod in self._indexed:
            if offset <= eid < end:
                line = eid - (eid - offset) % mod
                r = self.rot.get(line)
                return (line + (eid - line - r) % mod if r else eid), line
        return eid, None

    def _add(self, stored: int, line: int | None) -> None:
        self.ids.add(stored)
        if line is not None:
            self.buckets.setdefault(line, set()).add(stored)

    def _drop(self, stored: int, line: int | None) -> None:
        self.ids.remove(stored)
        if line is not None:
            self.buckets[line].remove(stored)
            if not self.buckets[line]:
                del self.buckets[line]
                self.rot.pop(line, None)

    def _discard(self, eid: int) -> bool:
        stored, line = self._where(eid)
        found = stored in self.ids
        if found:
            self._drop(stored, line)
        return found

    def take(self, x: int, y: int | None = None) -> tuple[int, bool, bool]:
        """The miss branch of a query: delete the present endpoints.

        Returns (size before, x present, y present).
        """
        ids = self.ids
        size = len(ids)
        if self._indexed:
            return size, self._discard(x), y is not None and self._discard(y)
        ids.discard(x)
        after_x = len(ids)
        ids.discard(y)  # a no-op for y = None
        return size, after_x < size, len(ids) < after_x

    def settle(self) -> None:
        """Rewrite each line with a pending rotation; afterwards none is pending."""
        buckets, ids = self.buckets, self.ids
        for offset, end, mod in self._indexed:
            for line, r in self.rot.items():
                if offset <= line < end:
                    old = buckets[line]
                    new = buckets[line] = {line + (e - line + r) % mod for e in old}
                    ids -= old
                    ids |= new
        self.rot.clear()

    def snapshot(self) -> set[int]:
        self.settle()
        return set(self.ids)

    def apply(self, perm: PermutationSpec) -> None:
        """Relabel every member by ``perm``."""
        for stage, comp in zip(perm.stages, perm._compiled):  # type: ignore[attr-defined]
            if isinstance(comp, dict):
                self.apply_swap(stage.pairs)
            else:
                self.apply_shift(comp)

    def apply_swap(self, pairs) -> None:
        ids = self.ids
        if not self._indexed:
            for a, b in pairs:
                if (a in ids) != (b in ids):
                    ids ^= {a, b}
            return
        where, add, drop = self._where, self._add, self._drop
        for a, b in pairs:
            here, there = where(a), where(b)
            if (here[0] in ids) != (there[0] in ids):
                if there[0] in ids:
                    here, there = there, here
                add(*there)  # before the drop, so a line that both lie on never empties
                drop(*here)

    def apply_shift(self, comp: _CompiledShift) -> None:
        mod = next((mod for offset, _, mod in self._indexed if offset == comp.offset), 0)
        mod = mod or self._index(comp.offset)
        buckets, rot = self.buckets, self.rot
        for line in comp.lines:
            if line in buckets:
                r = rot[line] = (rot.get(line, 0) + comp.amount) % mod
                if not r:
                    del rot[line]

    def _index(self, offset: int) -> int:
        """Bucket the block at ``offset`` by line in one scan; return its line length."""
        lay = next(lay for lay in self._layouts if lay.offset == offset)
        for eid in self.ids:
            if offset <= eid < lay.end:
                self.buckets.setdefault(lay.line(eid), set()).add(eid)
        self._indexed += ((offset, lay.end, lay.mod),)
        return lay.mod


class SketchHandle:
    """Live sketch state. Create via :func:`create`."""

    __slots__ = ("universe", "handle_id", "_size", "_store", "_rng", "_outcome")

    def __init__(
        self,
        universe: UniverseSpec,
        members: Iterable[int],
        rng: np.random.Generator,
        handle_id: int,
    ) -> None:
        self.universe = universe
        self.handle_id = handle_id
        self._size = universe.size  # read once; queries check endpoints against it
        self._rng = rng
        self._outcome: QueryOutcome | None = None
        self._store = _MemberStore(universe, members)

    # -- bookkeeping ------------------------------------------------------

    @property
    def destroyed(self) -> bool:
        return self._outcome is not None

    @property
    def final_outcome(self) -> QueryOutcome | None:
        """Outcome that destroyed the handle, if any."""
        return self._outcome

    def _require_alive(self) -> None:
        if self._outcome is not None:
            raise SketchDestroyedError(
                f"handle {self.handle_id} was destroyed by {self._outcome.value}"
            )

    @property
    def size(self) -> int:
        self._require_alive()
        return len(self._store.ids)

    def debug_members(self) -> set[int]:
        """Current member ids. Diagnostic only; no production code path reads it."""
        self._require_alive()
        return self._store.snapshot()

    # -- operations -------------------------------------------------------

    def update(self, perm: PermutationSpec) -> None:
        self._require_alive()
        if perm.universe is not self.universe and perm.universe != self.universe:
            raise ScriptError("permutation universe does not match handle universe")
        self._store.apply(perm)

    def _destroy(self, outcome: QueryOutcome) -> QueryOutcome:
        self._outcome = outcome
        self._store = None  # type: ignore[assignment]
        return outcome

    def _fire(self, pair: bool, size: int, present: int) -> QueryOutcome:
        scale, atoms = FIRE_LAW[pair, present]
        if atoms:
            u = self._rng.random() * scale * size
            acc = 0
            for outcome, weight in atoms:
                acc += weight
                if u < acc:
                    return self._destroy(outcome)
        return QueryOutcome.BOT

    # A query takes the miss branch first; a fire then discards the store, so
    # deleting the endpoints beforehand changes nothing observable. The full
    # checks run only if the inline one fails; no endpoint present means Bot.

    def query_one(self, x: int) -> QueryOutcome:
        if self._outcome is not None or type(x) is not int or not 0 <= x < self._size:
            self._require_alive()
            _check_query(self._size, x)
        size, present, _ = self._store.take(x)
        return self._fire(False, size, 1) if present else QueryOutcome.BOT

    def query_pair(self, x: int, y: int) -> QueryOutcome:
        size = self._size
        if self._outcome is not None or not (
            type(x) is type(y) is int and 0 <= x < size and 0 <= y < size and x != y
        ):
            self._require_alive()
            _check_query(size, x, y)
        size, present_x, present_y = self._store.take(x, y)
        present = present_x + present_y
        return self._fire(True, size, present) if present else QueryOutcome.BOT


def create(
    universe: UniverseSpec,
    members: Iterable[int],
    *,
    master_seed: int = 0,
    handle_id: int = 0,
) -> SketchHandle:
    """Build a sketch of ``members``; randomness is keyed by (seed, handle id)."""
    if master_seed < 0 or handle_id < 0:
        raise InvalidInitError("master_seed and handle_id must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, handle_id]))
    return SketchHandle(universe, members, rng, handle_id)


# -- scripts ---------------------------------------------------------------


@dataclass(frozen=True)
class Update:
    perm: PermutationSpec


@dataclass(frozen=True)
class QueryOne:
    x: int


@dataclass(frozen=True)
class QueryPair:
    x: int
    y: int


ScriptOp = Union[Update, QueryOne, QueryPair]


def run_script(handle: SketchHandle, script: Sequence[ScriptOp]) -> tuple[QueryOutcome, ...]:
    """Execute ops in order; stop after a query fires. Returns query outcomes."""
    outcomes: list[QueryOutcome] = []
    for op in script:
        if isinstance(op, Update):
            handle.update(op.perm)
            continue
        if isinstance(op, QueryOne):
            outcomes.append(handle.query_one(op.x))
        elif isinstance(op, QueryPair):
            outcomes.append(handle.query_pair(op.x, op.y))
        else:
            raise ScriptError(f"unknown script op {op!r}")
        if outcomes[-1].fires():
            break
    return tuple(outcomes)


@dataclass(frozen=True)
class ReplayStep:
    """Presence facts at one query of a noiseless replay."""

    op_index: int
    kind: str  # "one" | "pair"
    x: int
    y: int | None
    present_x: bool
    present_y: bool
    size_before: int

    @property
    def present_count(self) -> int:
        return int(self.present_x) + int(self.present_y)


@dataclass(frozen=True)
class ReplayTrace:
    survivors: frozenset[int]
    survival: Fraction
    steps: tuple[ReplayStep, ...]

    def fire_atoms(self) -> Iterator[tuple[int, QueryOutcome, Fraction]]:
        """Yield (query position in ``steps``, outcome, unconditional probability).

        The probability is weight / (scale * |T0|) from ``FIRE_LAW``: reaching
        a query without a fire has probability |T|/|T0|, which cancels the
        |T| of the query's own law. Updates keep the size, so |T0| is the
        size before the first query. Together with ``survival`` the atoms
        carry the whole outcome law of the script.
        """
        for k, step in enumerate(self.steps):
            for outcome, p in fire_probs(
                step.kind == "pair", step.present_count, self.steps[0].size_before
            ):
                yield k, outcome, p


def replay_noiseless(
    universe: UniverseSpec,
    members: Iterable[int],
    script: Sequence[ScriptOp],
) -> ReplayTrace:
    """Deterministic trajectory where every query misses.

    Returns the surviving member set, the probability that a real run reaches
    the end without a query firing, and per-query presence facts. Conditioned
    on no fire, a real handle holds exactly ``survivors`` afterwards. Members,
    updates and query endpoints are validated as :func:`create` and the
    handle's operations validate them, including ops that a real run could
    only reach with probability zero.
    """
    store = _MemberStore(universe, members)
    universe_size = universe.size
    initial_size = len(store.ids)
    survival = Fraction(1)
    steps: list[ReplayStep] = []
    for i, op in enumerate(script):
        if isinstance(op, Update):
            if op.perm.universe != universe:
                raise ScriptError("permutation universe does not match replay universe")
            store.apply(op.perm)
            continue
        if isinstance(op, QueryOne):
            _check_query(universe_size, op.x)
            size, present_x, present_y = store.take(op.x)
            step = ReplayStep(i, "one", op.x, None, present_x, present_y, size)
        elif isinstance(op, QueryPair):
            _check_query(universe_size, op.x, op.y)
            size, present_x, present_y = store.take(op.x, op.y)
            step = ReplayStep(i, "pair", op.x, op.y, present_x, present_y, size)
        else:
            raise ScriptError(f"unknown script op {op!r}")
        steps.append(step)
        survival *= 1 - sum(
            p for _, p in fire_probs(step.kind == "pair", step.present_count, step.size_before)
        )
    if survival != Fraction(len(store.ids), initial_size):
        raise InvariantError(
            f"replay survival {survival} != {len(store.ids)}/{initial_size} survivors"
        )
    return ReplayTrace(frozenset(store.snapshot()), survival, tuple(steps))


def replay_law(
    universe: UniverseSpec,
    members: Iterable[int],
    tagged_ops: Iterable[tuple[ScriptOp, object]],
    key: Callable[[object, QueryOutcome], Hashable],
    end_key: Hashable,
) -> Law:
    """Exact outcome law of a script, from its noiseless replay.

    ``tagged_ops`` pairs each op with a tag (ignored on updates). The fire
    atom of a query with tag t and outcome o goes to ``key(t, o)``, and the
    survival mass to ``end_key``; atoms with equal keys add up, in order of
    first appearance.
    """
    ops = list(tagged_ops)
    trace = replay_noiseless(universe, members, [op for op, _ in ops])
    tags = [tag for op, tag in ops if not isinstance(op, Update)]
    atoms: dict = {}
    for k, outcome, p in trace.fire_atoms():
        atom = key(tags[k], outcome)
        atoms[atom] = atoms[atom] + p if atom in atoms else p
    atoms[end_key] = atoms.get(end_key, 0) + trace.survival
    return Law(atoms)
