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

A live query is a presence test plus an in-place delete on the handle's
member set; only a query with an endpoint present draws a uniform. Each handle
takes its uniforms in order from the generator keyed by (seed, handle id), a
block at a time (``rng.random(n)``), and these are the same doubles that one
``rng.random()`` call per draw would give, so blocks change no outcome.

A ``QueryGroup`` is a burst of single or pair queries on pairwise-distinct
ids, validated once when it is built; ``SketchHandle.query_group`` runs it in
one loop and stops at the first fire. As no two of its queries share an id,
no query's delete can change the presence of a later one, so the loop makes
the same presence tests, deletes and draws (the same doubles, in the same
order) as calling ``query_one`` or ``query_pair`` on each query in turn.

The useful consequence of these laws is reorderability: misses delete
deterministically, so the member set conditioned on "no fire yet" is exactly
the set a noiseless replay produces, and the unconditional probability that a
given query fires depends only on the initial size and its presence pattern.
``replay_noiseless`` exposes that deterministic trajectory, and ``replay_law``
folds its fire probabilities into one exact ``Law`` of a tape's outcomes.

An estimator declares itself once, as a ``Tape``: its universe, its initial
members, its items (one per stream item, each a tuple of ``(PermutationSpec,
None)`` and ``(QueryGroup, tags)`` pairs with one tag per query), the map
``key(t, o)`` from a fire of the query tagged t with outcome o to a law key,
and the end key of a run no query ends. ``run_tagged(handle, tape)`` walks it
live and ``replay_law(tape)`` noiselessly, through the same key map.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Hashable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import (
    InvalidInitError,
    InvalidParamsError,
    InvalidQueryError,
    InvariantError,
    ScriptError,
    SketchDestroyedError,
    ValidationError,
)
from .permutation import Frame, PermutationSpec
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


def count_param(name: str, value, least: int = 0) -> int:
    """``value`` as an int of at least ``least``, else ``InvalidParamsError`` naming ``name``.

    As for ``create``'s seeds, an ``int`` or a type with ``__index__`` such as
    ``np.int64`` passes, and a bool does not.
    """
    count = _as_index(value)
    if count is None:
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise InvalidParamsError(f"{name} must be >= {least}, got {count}")
    return count


def edge_list(n, edges, directed: bool) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(n, edges) of a simple graph on vertices 1..n, each number an int that
    passes as ``count_param``'s counts do, else ``ValidationError``, carrying the
    index of the edge at fault. Unless ``directed``, (v, u) repeats (u, v)."""
    count = _as_index(n)
    if count is None:
        raise ValidationError(f"vertex count {n!r} must be an integer")
    if count < 1:
        raise ValidationError(f"vertex count {count} must be positive")
    edges = tuple(edges)  # a few passes accept a valid list; the loop finds the first fault
    if {*map(type, edges)} <= {tuple} and {*map(len, edges)} <= {2}:
        ends = [*chain.from_iterable(edges)]
        heads, tails = ends[::2], ends[1::2]
        keys = [*edges] if directed else [*edges, *zip(tails, heads)]
        if ({*map(type, ends)} <= {int} and (not ends or 1 <= min(ends) and max(ends) <= count)
                and not any(map(operator.eq, heads, tails)) and len(set(keys)) == len(keys)):
            return count, edges
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for i, (u, v) in enumerate(edges):
        a, b = _as_index(u), _as_index(v)
        if a is None or b is None:
            raise ValidationError(f"edge {i + 1} ({u!r}, {v!r}) has a non-integer endpoint", i)
        if not (1 <= a <= count and 1 <= b <= count):
            raise ValidationError(f"edge {i + 1} ({a}, {b}) leaves [1, {count}]", i)
        if a == b:
            raise ValidationError(f"edge {i + 1} is a self-loop at {a}", i)
        edge = (a, b) if directed or a < b else (b, a)
        if edge in seen:
            raise ValidationError(f"edge {i + 1} ({a}, {b}) repeats an earlier edge", i)
        seen[edge] = (a, b)
    return count, tuple(seen.values())


def _as_index(value) -> int | None:
    """``operator.index(value)``, or None for a bool or a value without ``__index__``."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class Law:
    """Exact finite output law: ``atoms`` maps each outcome key to a Fraction.

    The atoms keep their insertion order, which fixes how ``sample`` and
    ``draw_counts`` map draws to atoms. Construction raises ``InvariantError``
    unless the mass is exactly one. ``atoms`` is read-only once built: ``expect``
    and the samplers keep numbers derived from it.
    """

    atoms: dict

    def __post_init__(self) -> None:
        den, nums = self._scaled
        if sum(nums) != den:
            raise InvariantError(f"law carries mass {Fraction(sum(nums), den)}, not 1")

    @classmethod
    def from_numerators(cls, den: int, nums: dict) -> Law:
        """The law whose atom ``key`` has mass ``nums[key] / den``, in ``nums`` order, with
        ``_scaled`` (``den``, the numerators); equal numerators share one Fraction."""
        probs = {num: Fraction(num, den) for num in set(nums.values())}
        law = cls.__new__(cls)
        object.__setattr__(law, "atoms", {key: probs[num] for key, num in nums.items()})
        law.__dict__["_scaled"] = den, list(nums.values())
        law.__post_init__()
        return law

    @cached_property
    def _scaled(self) -> tuple[int, list[int]]:
        """(D, numerators): each atom's mass as a whole number of 1/D, D a common
        denominator of the atoms: the least one, unless ``from_numerators`` gave it."""
        probs = self.atoms.values()
        den = math.lcm(*(p.denominator for p in probs))
        return den, [p.numerator * (den // p.denominator) for p in probs]

    def expect(self, f: Callable) -> Fraction:
        """E[f(key)], exactly, for f with rational values; atoms where f is zero
        cost nothing, and the rest add up as numerators over one denominator."""
        den, nums = self._scaled
        return Fraction(sum(v * num for key, num in zip(self.atoms, nums) if (v := f(key))), den)

    @cached_property
    def _floats(self) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities up to the last positive atom, cumulative bounds) as floats,
        built on first use.

        The atoms past the last positive one have no probability in the first
        array, so ``draw_counts`` never counts them; and the bounds from the last
        positive atom on are pinned to 1, so float rounding can never leave a
        ``sample`` draw on a zero-mass atom after it or past the final atom.
        """
        den, nums = self._scaled
        probs = [num / den for num in nums]  # int division rounds as float(Fraction) does
        top = max(k for k, p in enumerate(probs) if p) + 1
        cum = np.cumsum(probs)
        cum[top - 1:] = 1.0
        return np.array(probs[:top]), cum

    def sample(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """Indices, in ``atoms`` order, of ``trials`` independent draws: one uniform
        u each, at ``np.searchsorted(cum, u, side="right")`` over the pinned
        cumulative bounds."""
        return np.searchsorted(self._floats[1], rng.random(count_param("trials", trials)), "right")

    def draw_counts(
        self, rng: np.random.Generator, trials: int, groups: int | None = None
    ) -> np.ndarray:
        """How many of ``trials`` independent draws land on each atom, in ``atoms``
        order, as int64: one ``rng.multinomial`` draw, whose cost is O(atoms)
        whatever ``trials`` is. With ``groups``, a ``groups`` x atoms array: one
        row of counts per group of ``trials`` draws. Zero-mass atoms count 0."""
        probs = self._floats[0]
        size = None if groups is None else (count_param("groups", groups),)
        drawn = rng.multinomial(count_param("trials", trials), probs, size)
        counts = np.zeros(drawn.shape[:-1] + (len(self.atoms),), dtype=np.int64)
        counts[..., :len(probs)] = drawn
        return counts


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
    """A set of member ids, held flat in ``ids`` in the frame of the shifts so far.

    The first cyclic shift makes ``frame``, a ``permutation.Frame``; each
    shift then only adds to the rotations of the lines it names, and swaps
    and queries address framed ids (``frame(eid)``), so ``ids`` holds the
    framed id of every member and a shift rewrites none. ``members`` reads
    them back in universe ids. Runs whose op sequence is fixed frame their
    ops' ids beforehand, so their stores never make a frame.
    Construction raises ``InvalidInitError`` on an empty, repeated or
    out-of-universe member set.
    """

    __slots__ = ("universe", "frame", "ids")

    def __init__(self, universe: UniverseSpec, members: Iterable[int]) -> None:
        self.universe = universe
        self.frame: Frame | None = None
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

    def take(self, x: int, y: int | None = None) -> tuple[int, bool, bool]:
        """The miss branch of a query: delete the present endpoints.

        Returns (size before, x present, y present).
        """
        ids, frame = self.ids, self.frame
        if frame is not None:
            x, y = frame(x), y if y is None else frame(y)
        size = len(ids)
        ids.discard(x)
        after_x = len(ids)
        ids.discard(y)  # a no-op for y = None
        return size, after_x < size, len(ids) < after_x

    def members(self) -> set[int]:
        """The member ids, in universe ids."""
        return set(self.ids) if self.frame is None else self.frame.unframe_all(self.ids)

    def apply(self, perm: PermutationSpec) -> None:
        """Relabel every member by ``perm``: each segment's transpositions in
        order, then its shift, if any."""
        ids = self.ids
        for pairs, shift in perm._segments:  # type: ignore[attr-defined]
            frame = self.frame
            if frame is not None:
                pairs = [(frame(a), frame(b)) for a, b in pairs]
            for a, b in pairs:  # move a lone member to its partner
                if a in ids:
                    if b not in ids:
                        ids.remove(a)
                        ids.add(b)
                elif b in ids:
                    ids.remove(b)
                    ids.add(a)
            if shift is not None:
                if frame is None:
                    frame = self.frame = Frame(self.universe)
                frame.turn(shift)


class QueryGroup:
    """Queries on pairwise-distinct ids of ``universe``, run in order by
    ``SketchHandle.query_group``: single queries on ``xs``, or pair queries on
    ``zip(xs, ys)``.

    Construction validates every endpoint once, by ``_check_query``'s rules
    against one read of the universe size, and raises ``InvalidQueryError``
    on the first query, in order, with a bad endpoint or an id that an earlier
    endpoint of the group already has, and when ``ys`` and ``xs`` differ in
    length.
    """

    __slots__ = ("universe", "xs", "ys")

    def __init__(
        self, universe: UniverseSpec, xs: Iterable[int], ys: Iterable[int] | None = None
    ) -> None:
        self.universe = universe
        self.xs = xs = tuple(xs)
        self.ys = ys = None if ys is None else tuple(ys)
        if ys is not None and len(ys) != len(xs):
            raise InvalidQueryError(f"a pair group has {len(xs)} xs but {len(ys)} ys")
        size = universe.layout()[-1].end  # the cached size
        ids = xs if ys is None else xs + ys
        if (
            all(type(eid) is int for eid in ids)
            and (not ids or 0 <= min(ids) and max(ids) < size)
            and len(set(ids)) == len(ids)
        ):
            return
        seen: set[int] = set()  # find the first fault, query by query
        for query in zip(xs) if ys is None else zip(xs, ys):
            _check_query(size, *query)
            for eid in query:
                if eid in seen:
                    raise InvalidQueryError(f"query group repeats endpoint {eid}")
                seen.add(eid)

    def ops(self) -> tuple[ScriptOp, ...]:
        """The group's queries as script ops, in order."""
        if self.ys is None:
            return tuple(map(QueryOne, self.xs))
        return tuple(map(QueryPair, self.xs, self.ys))


#: ``query_group``'s ``FIRE_LAW`` rows, (one present, two present), per pair flag.
_GROUP_LAW = {pair: (FIRE_LAW[pair, 1], FIRE_LAW[True, 2]) for pair in (False, True)}

#: A handle draws its uniforms in blocks of ``_FIRST_BLOCK``, then twice as
#: many per refill up to ``_LAST_BLOCK``: a short run pays for few draws it
#: never uses, and a long one refills rarely.
_FIRST_BLOCK, _LAST_BLOCK = 4, 64


class SketchHandle:
    """Live sketch state. Create via :func:`create`."""

    __slots__ = ("universe", "handle_id", "_size", "_store", "_rng", "_draws", "_block", "_outcome")

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
        self._draws: list[float] = []  # the next uniforms of ``rng``, last one first
        self._block = _FIRST_BLOCK
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
        return self._store.members()

    # -- operations -------------------------------------------------------

    def update(self, perm: PermutationSpec) -> None:
        if self._outcome is not None or perm.universe is not self.universe:
            self._require_alive()
            if perm.universe != self.universe:
                raise ScriptError("permutation universe does not match handle universe")
        self._store.apply(perm)

    def _refill(self) -> list[float]:
        """Draw the next block of uniforms, and double the block after it up to
        ``_LAST_BLOCK``; ``rng.random(n)`` gives the same doubles as n calls of
        ``rng.random()``."""
        n = self._block
        self._block = min(2 * n, _LAST_BLOCK)
        draws = self._draws = self._rng.random(n)[::-1].tolist()
        return draws

    def _fire(self, pair: bool, size: int, present: int) -> QueryOutcome:
        """Draw the next uniform u and fire by ``FIRE_LAW``; ``present`` is at least 1.

        Each atom fires while the float u * scale * size is below its cumulative
        weight. Rounding moves at most the one double just below a boundary
        across it (``tests/test_sketch.py`` checks every row at sizes 1..64),
        so each atom's probability is within 2^-53 of weight / (scale * size).
        """
        scale, atoms = FIRE_LAW[pair, present]
        u = (self._draws or self._refill()).pop() * scale * size
        acc = 0
        for outcome, weight in atoms:
            acc += weight
            if u < acc:
                self._outcome = outcome
                self._store = None  # type: ignore[assignment]
                return outcome
        return QueryOutcome.BOT

    # A query tests its endpoints in place: with none present it is Bot and
    # changes nothing; otherwise it deletes them (the miss branch) and draws.
    # A fire then discards the store, so deleting beforehand changes nothing
    # observable. The full checks run only if the inline one fails.

    def query_one(self, x: int) -> QueryOutcome:
        if self._outcome is not None or type(x) is not int or not 0 <= x < self._size:
            self._require_alive()
            _check_query(self._size, x)
        store = self._store
        ids = store.ids
        if store.frame is not None:
            x = store.frame(x)
        if x not in ids:
            return QueryOutcome.BOT
        size = len(ids)
        ids.remove(x)
        return self._fire(False, size, 1)

    def query_pair(self, x: int, y: int) -> QueryOutcome:
        size = self._size
        if self._outcome is not None or not (
            type(x) is type(y) is int and 0 <= x < size and 0 <= y < size and x != y
        ):
            self._require_alive()
            _check_query(size, x, y)
        store = self._store
        ids = store.ids
        if store.frame is not None:
            x, y = store.frame(x), store.frame(y)
        size = len(ids)
        if x in ids:
            ids.remove(x)
            if y in ids:
                ids.remove(y)
                return self._fire(True, size, 2)
        elif y in ids:
            ids.remove(y)
        else:
            return QueryOutcome.BOT
        return self._fire(True, size, 1)

    def query_group(self, group: QueryGroup) -> tuple[int, QueryOutcome] | None:
        """Run ``group``'s queries in order until one fires; return its index in
        the group and its outcome, or None when every query misses.

        Each query is what ``query_one`` or ``query_pair`` does, draw for draw:
        a presence test and delete in place, then, with an endpoint present,
        the next uniform u fires by the query's ``FIRE_LAW`` row as ``_fire``
        does, on the float u * scale * size. The group was validated when it
        was built. Its endpoints are distinct, so its own deletes leave the
        presence of its later queries as it was.
        """
        if self._outcome is not None or group.universe is not self.universe:
            self._require_alive()
            if group.universe != self.universe:
                raise ScriptError("query group universe does not match handle universe")
        store = self._store
        ids, frame = store.ids, store.frame
        xs, ys = group.xs, group.ys
        pair = ys is not None
        if frame is not None:
            xs = [frame(x) for x in xs]
            ys = [frame(y) for y in ys] if pair else None
        one, two = _GROUP_LAW[pair]
        for i, (x, y) in enumerate(zip(xs, ys) if pair else zip(xs, repeat(None))):
            if x in ids:  # y = None is never a member
                size = len(ids)
                ids.remove(x)
                if y in ids:
                    ids.remove(y)
                    scale, atoms = two
                else:
                    scale, atoms = one
            elif y in ids:
                size = len(ids)
                ids.remove(y)
                scale, atoms = one
            else:
                continue
            u = (self._draws or self._refill()).pop() * scale * size
            acc = 0
            for outcome, weight in atoms:
                acc += weight
                if u < acc:
                    self._outcome = outcome
                    self._store = None  # type: ignore[assignment]
                    return i, outcome
        return None


def create(
    universe: UniverseSpec,
    members: Iterable[int],
    *,
    master_seed: int = 0,
    handle_id: int = 0,
) -> SketchHandle:
    """Build a sketch of ``members``; randomness is keyed by (seed, handle id).

    Both keys must be nonnegative integers (an ``int``, or a type with
    ``__index__`` such as ``np.int64``, but not a bool); anything else raises
    ``InvalidInitError``.
    """
    if not (type(master_seed) is type(handle_id) is int and master_seed >= 0 and handle_id >= 0):
        master_seed = _seed_key("master_seed", master_seed)
        handle_id = _seed_key("handle_id", handle_id)
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, handle_id]))
    return SketchHandle(universe, members, rng, handle_id)


def _seed_key(name: str, value) -> int:
    """``value`` as a nonnegative int, else ``InvalidInitError`` naming ``name``."""
    key = _as_index(value)
    if key is None or key < 0:
        raise InvalidInitError(f"{name} must be a nonnegative integer, got {value!r}")
    return key


#: The seed word of each purpose that draws from a master seed, other than the
#: live handles and the triangle edge selection (see ``purpose_rng``).
SEED_PURPOSES = {"bhm": 1, "triangle": 2, "heavy": 3, "snapshot": 4, "majority": 5,
                 "equivalence": 6}


def purpose_rng(purpose: str, seed: int, index: int = 0) -> np.random.Generator:
    """The generator of ``purpose`` (a ``SEED_PURPOSES`` key) at (``seed``, ``index``).

    A live handle draws from the seed words ``[seed, handle_id]`` (``create``),
    a triangle run's edge selection from ``[seed, handle_id, 2]``, and numpy
    pads either with zeros to four words. A purpose takes ``[seed, index]``,
    padded to four words, and then its own nonzero fifth word (a spawn key),
    which no live handle, selection or other purpose has: while seeds and
    indices stay below 2**32, no two of these streams coincide.
    """
    words = np.random.SeedSequence([seed, index], spawn_key=(SEED_PURPOSES[purpose],))
    return np.random.default_rng(words)


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


def _check_fire_law() -> None:
    """Raise unless every ``FIRE_LAW`` row fires with total weight scale * present,
    so that a query with ``present`` endpoints in T fires with probability
    present/|T|: exactly the share of T its miss deletes."""
    for row, (scale, atoms) in FIRE_LAW.items():
        total = sum(weight for _, weight in atoms)
        if total != scale * row[1]:
            raise InvariantError(
                f"FIRE_LAW row {row} fires with total weight {total}, not {scale} * {row[1]}"
            )


def _replay(store: _MemberStore, items: Iterable[tuple]) -> Iterator[tuple]:
    """Walk the tape ``items`` on ``store`` with every query missing; yield (item index,
    pair?, x, y, tag, size before, x present, y present) per query. Op universes are
    checked as the handle checks them, and each group needs one tag per query; group
    endpoints were checked when built.
    Raises ``InvariantError`` unless each query meets the initial size minus the earlier
    present endpoints, and ``store`` ends with exactly that many survivors."""
    _check_fire_law()
    universe = store.universe
    initial_size = left = len(store.ids)
    take = store.take
    for i, item in enumerate(items):
        for op, tags in item:
            if op.universe is not universe and op.universe != universe:
                raise ScriptError(f"{type(op).__name__} universe does not match replay universe")
            if tags is None:
                store.apply(op)
                continue
            if len(tags) != len(op.xs):
                raise ScriptError(f"a group of {len(op.xs)} queries carries {len(tags)} tags")
            pair = op.ys is not None
            for x, y, tag in zip(op.xs, op.ys if pair else repeat(None), tags):
                size, px, py = take(x, y)
                if size != left:
                    raise InvariantError(f"query {i} meets {size} members, not the {left} left")
                left -= px + py
                yield i, pair, x, y, tag, size, px, py
    if len(store.ids) != left:
        raise InvariantError(
            f"replay keeps {len(store.ids)} survivors, not {initial_size} minus the "
            f"{initial_size - left} present endpoints its queries deleted"
        )


def script_items(universe: UniverseSpec, tagged_ops: Iterable[tuple]) -> Iterator[tuple]:
    """Each (script op, tag) as a one-op tape item, built when a walk reaches it, so
    the walk validates each op where the handle would: an update as its permutation,
    a query as a one-query ``QueryGroup`` tagged ``tag``."""
    for op, tag in tagged_ops:
        if isinstance(op, Update):
            yield ((op.perm, None),)
        elif isinstance(op, QueryOne):
            yield ((QueryGroup(universe, (op.x,)), (tag,)),)
        elif isinstance(op, QueryPair):
            yield ((QueryGroup(universe, (op.x,), (op.y,)), (tag,)),)
        else:
            raise ScriptError(f"unknown script op {op!r}")


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

    The survival probability is the product over queries of
    (|T| - present)/|T|, since a query fires with probability present/|T|
    (``_check_fire_law``). It telescopes to |S|/|T0|, which ``_replay``
    checks in integers.
    """
    store = _MemberStore(universe, members)
    initial_size = len(store.ids)
    steps = tuple(
        ReplayStep(i, "pair" if pair else "one", x, y, px, py, size)
        for i, pair, x, y, _, size, px, py in _replay(
            store, script_items(universe, zip(script, repeat(None)))
        )
    )
    survivors = frozenset(store.members())
    return ReplayTrace(survivors, Fraction(len(survivors), initial_size), steps)


@dataclass(frozen=True)
class Tape:
    """An estimator's declaration. Every run starts from ``members`` over
    ``universe`` and walks ``items``, one per stream item; the fire of the query
    tagged t with outcome o ends it at law key ``key(t, o)``, and a run no query
    ends, at ``end_key``. An instance builds its items once, as a tuple; a
    one-off walk may pass a generator, walked once."""

    universe: UniverseSpec
    members: Iterable[int]
    items: Iterable[tuple]
    key: Callable[[object, QueryOutcome], Hashable]
    end_key: Hashable

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.items)


def signed_key(value: int, tag, outcome: QueryOutcome) -> int:
    """A fire's key under ``partial(signed_key, value)``, whatever its tag: +value
    for Plus, -value for Minus."""
    return outcome.sign * value


#: ``replay_law``'s fire numerators: the least common multiple L of the
#: ``FIRE_LAW`` scales, and per row each atom's (outcome, weight * L / scale).
_LCM = math.lcm(*(scale for scale, _ in FIRE_LAW.values()))
_FIRE_NUMS = {
    row: tuple((outcome, weight * (_LCM // scale)) for outcome, weight in atoms)
    for row, (scale, atoms) in FIRE_LAW.items()
}


def replay_law(tape: Tape) -> Law:
    """Exact outcome law of ``run_tagged`` on ``tape``: ``replay_numerators`` as a ``Law``."""
    return Law.from_numerators(*replay_numerators(tape))


def replay_numerators(tape: Tape) -> tuple[int, dict]:
    """(D, numerators): the exact outcome law of ``run_tagged`` on ``tape`` as integer
    masses over D, from one lazy pass of its noiseless replay.

    The fire atom of a query with tag t and outcome o goes to ``tape.key(t, o)``,
    and the survival mass to ``tape.end_key``; atoms with equal keys add up, in
    order of first appearance.

    A query fires o with unconditional probability weight / (scale * |T0|)
    from ``FIRE_LAW``: reaching it without a fire has probability |T|/|T0|,
    which cancels the |T| of its own law, and updates keep the size. So every
    mass is a whole multiple of 1/D, D = ``_LCM`` * |T0|: a fire atom is its
    ``_FIRE_NUMS`` numerator of them, and the survival |S|/|T0| is ``_LCM`` *
    |S|. The atoms add up as integer numerators.
    """
    store = _MemberStore(tape.universe, tape.members)
    initial_size = len(store.ids)
    key, end_key, nums = tape.key, tape.end_key, {}
    for _, pair, _, _, tag, _, px, py in _replay(store, tape.items):
        for outcome, num in _FIRE_NUMS[pair, px + py]:
            atom = key(tag, outcome)
            nums[atom] = nums.get(atom, 0) + num
    nums[end_key] = nums.get(end_key, 0) + _LCM * len(store.ids)
    return _LCM * initial_size, nums


def run_tagged(
    handle: SketchHandle, tape: Tape, observer: Callable[[int, set[int]], None] | None = None
) -> Hashable:
    """Run ``tape``'s items on ``handle``, the live twin of ``replay_law``: return
    ``tape.key(tag, outcome)`` of the first query that fires, else ``tape.end_key``.
    ``observer`` (test hook) receives (item number from 1, member ids) after
    each item the handle survives."""
    update, query_group = handle.update, handle.query_group
    for ell, item in enumerate(tape.items, start=1):
        for op, tags in item:
            if tags is None:
                update(op)
                continue
            hit = query_group(op)
            if hit is not None:
                return tape.key(tags[hit[0]], hit[1])
        if observer is not None:
            observer(ell, handle.debug_members())
    return tape.end_key
