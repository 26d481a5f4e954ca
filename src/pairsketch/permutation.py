"""Declarative permutations over a universe.

A permutation is an ordered list of stages applied left to right. Two stage
kinds cover everything the streaming algorithms need:

* ``SwapStage``: disjoint transpositions, given by element ids.
* ``CyclicShift``: adds a constant to the last coordinate of one block,
  modulo that factor's size, for every element whose leading coordinates
  match a selection (``None`` entries match everything).

Both kinds are bijections by construction. A ``CyclicShift`` only constrains
coordinates it does not move, so the matched set is a union of cyclic lines
(see ``pairsketch.universe``) and closed under the shift. This module is the
only one that reads a selection: compiling a shift turns it into the first
ids of the lines it rotates.

A ``Frame`` keeps a live store's shifts as pending rotations of lines and
addresses swaps and queries through them. Estimators with a fixed op sequence
know each line's rotation from their own counters and call ``frame_id``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Union

import numpy as np

from .errors import PermutationError
from .universe import UniverseSpec


def _swap_id(eid) -> int:
    """``eid`` as a plain int: an int, or a type with ``__index__`` such as
    ``np.int64``. A bool, float or str raises ``PermutationError``, as
    ``create`` and the queries reject it; ``int()`` would name another id."""
    if type(eid) is int:
        return eid
    try:
        if not isinstance(eid, (bool, np.bool_)):
            return operator.index(eid)
    except TypeError:
        pass
    raise PermutationError(f"swap id {eid!r} is not an integer")


@dataclass(frozen=True)
class SwapStage:
    """Disjoint transpositions of element ids."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = self.pairs  # kept as given when it is a tuple of 2-tuples of plain ints
        if type(pairs) is not tuple or not all(
            type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in pairs
        ):
            object.__setattr__(self, "pairs", tuple((_swap_id(a), _swap_id(b)) for a, b in pairs))


@dataclass(frozen=True)
class CyclicShift:
    """Shift the last coordinate of ``block`` by ``amount`` (mod factor size).

    ``select`` has one entry per non-final factor of the block: a set of
    factor values, or ``None`` to match every value of that factor.
    """

    block: str
    amount: int
    select: tuple[frozenset | None, ...] = ()

    def __post_init__(self) -> None:
        norm = tuple(None if s is None else frozenset(s) for s in self.select)
        object.__setattr__(self, "select", norm)


Stage = Union[SwapStage, CyclicShift]


@dataclass(frozen=True)
class _CompiledShift:
    """Rotate each cyclic line named in ``lines`` by ``amount`` (mod ``mod``)."""

    offset: int
    end: int
    mod: int
    amount: int
    lines: frozenset[int]  # first id of every selected line

    def line_of(self, eid: int) -> int:
        return eid - (eid - self.offset) % self.mod

    def shift_id(self, eid: int) -> int:
        local = eid - self.offset
        last = local % self.mod
        return eid - last + (last + self.amount) % self.mod


@dataclass(frozen=True)
class PermutationSpec:
    """A validated permutation of ``universe``, as an ordered stage list.

    Construction compiles the stages into ``_segments``: each run of
    consecutive swap stages becomes one flat tuple of transpositions, applied
    in order (a stage's pairs are disjoint, so in-order equals all at once),
    followed by the compiled shift that ends the run, if any.
    """

    universe: UniverseSpec
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        size = self.universe.layout()[-1].end  # the cached size, for every swap stage
        segments: list[tuple[tuple[tuple[int, int], ...], _CompiledShift | None]] = []
        run: list[SwapStage] = []
        for stage in stages:
            if isinstance(stage, SwapStage):
                _check_swap(size, stage)
                run.append(stage)
            elif isinstance(stage, CyclicShift):
                segments.append((_flat(run), compile_shift(self.universe, stage)))
                run = []
            else:
                raise PermutationError(f"unknown stage type {type(stage).__name__}")
        if run:
            segments.append((_flat(run), None))
        object.__setattr__(self, "_segments", tuple(segments))

    def apply(self, eid: int) -> int:
        """Image of a single element id under the full permutation."""
        self.universe.check_id(eid)
        for pairs, shift in self._segments:  # type: ignore[attr-defined]
            for a, b in pairs:
                if eid == a:
                    eid = b
                elif eid == b:
                    eid = a
            if shift is not None and shift.offset <= eid < shift.end:
                if shift.line_of(eid) in shift.lines:
                    eid = shift.shift_id(eid)
        return eid

    def as_mapping_array(self) -> np.ndarray:
        """Dense id -> image array (for the state-vector backend)."""
        n = self.universe.size
        mapping = np.fromiter((self.apply(e) for e in range(n)), dtype=np.int64, count=n)
        if len(np.unique(mapping)) != n:
            raise PermutationError("stage list does not describe a bijection")
        return mapping


def _check_swap(size: int, stage: SwapStage) -> None:
    """Raise unless ``stage``'s ids lie below ``size`` and its pairs are disjoint
    transpositions. ``SwapStage`` made every id a plain int. One pass over all ids
    accepts a valid stage; the loop finds the first fault, pair by pair."""
    ids = [*chain.from_iterable(stage.pairs)]
    if not ids or 0 <= min(ids) and max(ids) < size and len(set(ids)) == len(ids):
        return
    seen: set[int] = set()
    for a, b in stage.pairs:
        for eid in (a, b):
            if not 0 <= eid < size:
                raise PermutationError(f"id {eid!r} outside universe of size {size}")
        if a == b:
            raise PermutationError(f"swap pair ({a}, {b}) is degenerate")
        if a in seen or b in seen:
            raise PermutationError(f"swap pairs overlap at ({a}, {b})")
        seen.add(a)
        seen.add(b)


def _flat(run: list[SwapStage]) -> tuple[tuple[int, int], ...]:
    """The transpositions of consecutive swap stages, in order."""
    if len(run) == 1:
        return run[0].pairs
    return tuple(pair for stage in run for pair in stage.pairs)


def compile_shift(universe: UniverseSpec, stage: CyclicShift) -> _CompiledShift:
    """The lines ``stage`` rotates in ``universe``, and by how much."""
    try:
        block_index, block, offset = universe.entry(stage.block)
    except KeyError as exc:
        raise PermutationError(str(exc)) from None
    if len(stage.select) != len(block.factors) - 1:
        raise PermutationError(
            f"block {stage.block!r} needs {len(block.factors) - 1} selection "
            f"entries, got {len(stage.select)}"
        )
    axes = []
    for factor, sel in zip(block.factors, stage.select):
        if sel is None:
            axes.append(range(factor.size))
        else:
            try:
                axes.append({factor.index(v) for v in sel})
            except ValueError as exc:
                raise PermutationError(str(exc)) from None
    lay = universe.layout()[block_index]
    lines = frozenset(
        offset + sum(i * stride for i, stride in zip(idx, lay.strides))
        for idx in product(*axes)
    )
    return _CompiledShift(offset, lay.end, lay.mod, stage.amount % lay.mod, lines)


def frame_id(eid: int, line: int, r: int, mod: int) -> int:
    """Where member ``eid`` is kept once its line has been rotated by ``r`` and
    the rotation left pending: the id that held it before.

    ``line`` is the first id of ``eid``'s cyclic line and ``mod`` its length.
    ``frame_id(s, line, -r, mod)`` maps a kept id back to the member.
    """
    return line + (eid - line - r) % mod


class Frame:
    """Cumulative rotations of cyclic lines, and the framed ids they define.

    ``turn`` adds a compiled shift to the rotation ``rot`` of every line it
    names, and nothing moves: ``frame(eid)`` is where universe id ``eid``'s
    member is kept, the id that held it before the rotations (``frame_id``),
    and ``unframe_all`` maps kept ids back. Swaps and queries on framed ids
    act on the unshifted member set exactly as the literal ops act on the
    shifted one: presences, sizes and outcomes agree.

    A sketch's member store keeps one frame for the shifts its updates apply.
    """

    __slots__ = ("universe", "rot", "_blocks")

    def __init__(self, universe: UniverseSpec):
        self.universe = universe
        self.rot: dict[int, int] = {}  # first id of a line -> its rotation
        self._blocks = tuple((lay.offset, lay.end, lay.mod) for lay in universe.layout())

    def __call__(self, eid: int) -> int:
        """The framed id of universe id ``eid``."""
        for offset, end, mod in self._blocks:
            if offset <= eid < end:
                line = eid - (eid - offset) % mod
                r = self.rot.get(line)
                return frame_id(eid, line, r, mod) if r else eid
        return eid  # outside the universe: left for validation to reject

    def unframe_all(self, ids: Iterable[int]) -> set[int]:
        """The universe ids whose framed ids are ``ids``: framing by the
        opposite rotations (``frame_id``) inverts the frame."""
        back = Frame(self.universe)
        back.rot = {line: -r for line, r in self.rot.items()}
        return set(map(back, ids))

    def turn(self, comp: _CompiledShift) -> None:
        """Add the shift ``comp`` to the rotation of every line it names."""
        rot = self.rot
        for line in comp.lines:
            rot[line] = (rot.get(line, 0) + comp.amount) % comp.mod


def swap_perm(universe: UniverseSpec, *pairs: tuple[int, int]) -> PermutationSpec:
    """Convenience builder for a single-stage swap permutation."""
    return PermutationSpec(universe, (SwapStage(tuple(pairs)),))
