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

A shift relabels ids the same way in every run of a fixed op sequence, so a
``Frame`` can fold the sequence's shifts into the ids of its later swaps and
queries once; the runs then apply swaps only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Union

import numpy as np

from .errors import PermutationError
from .universe import UniverseSpec


@dataclass(frozen=True)
class SwapStage:
    """Disjoint transpositions of element ids."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs)
        )


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
    """A validated permutation of ``universe``, as an ordered stage list."""

    universe: UniverseSpec
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        compiled = []
        for stage in self.stages:
            if isinstance(stage, SwapStage):
                compiled.append(self._compile_swap(stage))
            elif isinstance(stage, CyclicShift):
                compiled.append(compile_shift(self.universe, stage))
            else:
                raise PermutationError(f"unknown stage type {type(stage).__name__}")
        object.__setattr__(self, "_compiled", tuple(compiled))

    def _compile_swap(self, stage: SwapStage) -> dict[int, int]:
        # SwapStage made every id a plain int, so a range check is check_id
        size = self.universe.size
        mapping: dict[int, int] = {}
        for a, b in stage.pairs:
            for eid in (a, b):
                if not 0 <= eid < size:
                    raise PermutationError(f"id {eid!r} outside universe of size {size}")
            if a == b:
                raise PermutationError(f"swap pair ({a}, {b}) is degenerate")
            if a in mapping or b in mapping:
                raise PermutationError(f"swap pairs overlap at ({a}, {b})")
            mapping[a] = b
            mapping[b] = a
        return mapping

    @cached_property
    def swapped(self) -> tuple[int, ...]:
        """Every id a swap stage names."""
        return tuple(
            eid for stage in self.stages if isinstance(stage, SwapStage)
            for pair in stage.pairs for eid in pair
        )

    def apply(self, eid: int) -> int:
        """Image of a single element id under the full permutation."""
        self.universe.check_id(eid)
        for comp in self._compiled:  # type: ignore[attr-defined]
            if isinstance(comp, dict):
                eid = comp.get(eid, eid)
            elif comp.offset <= eid < comp.end and comp.line_of(eid) in comp.lines:
                eid = comp.shift_id(eid)
        return eid

    def as_mapping_array(self) -> np.ndarray:
        """Dense id -> image array (for the state-vector backend)."""
        n = self.universe.size
        mapping = np.fromiter((self.apply(e) for e in range(n)), dtype=np.int64, count=n)
        if len(np.unique(mapping)) != n:
            raise PermutationError("stage list does not describe a bijection")
        return mapping


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
    """The cyclic shifts of an op sequence, folded into the ids of its later ops.

    Walk the sequence once: ``fold`` adds each shift to the cumulative
    rotation ``rot`` of every line it names, and emits each swap with its ids
    framed (``frame(eid)``, see ``frame_id``); queries are framed the same way.
    Swaps and queries on framed ids act on the unshifted member set exactly as
    the literal ops act on the shifted one: presences, sizes and outcomes
    agree, and a ``FrameReader`` maps members back to the literal ids.
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

    def fold(self, stages: Iterable[Stage]) -> tuple[tuple[SwapStage, ...], dict[int, int]]:
        """Walk ``stages`` in order: the framed swap stages, and the rotation
        each line the shifts named ends up with."""
        swaps, rot, turned = [], self.rot, {}
        for stage in stages:
            if isinstance(stage, SwapStage):
                swaps.append(SwapStage(tuple((self(a), self(b)) for a, b in stage.pairs)))
            elif isinstance(stage, CyclicShift):
                comp = compile_shift(self.universe, stage)
                for line in comp.lines:
                    rot[line] = turned[line] = (rot.get(line, 0) + comp.amount) % comp.mod
            else:
                raise PermutationError(f"unknown stage type {type(stage).__name__}")
        return tuple(swaps), turned


class FrameReader:
    """Reads the members of a run on framed ops back in literal ids, step by step.

    Start it on the run's initial members. Per step, ``turn`` takes the (line,
    rotation) pairs the step's shifts left (``Frame.fold``'s second result),
    and ``read`` every framed id the step's swaps and queries named, with the
    set of those the run still holds. Only named ids can have joined or left,
    and only rotated lines move, so the reader keeps the literal member set
    and, for each block a rotation has named, the framed members by line; a
    read rewrites only the lines whose members or rotation changed, as the
    lazy store's ``settle`` rewrites only pending lines.
    """

    __slots__ = ("_rot", "_mods", "_blocks", "_grouped", "_lines", "_held", "_literal", "_old")

    def __init__(self, universe: UniverseSpec, members: Iterable[int]):
        self._rot: dict[int, int] = {}  # line -> its rotation, for each rotated line
        self._mods: dict[int, int] = {}  # line -> its length, for each line seen
        self._blocks = tuple((lay.offset, lay.end, lay.mod) for lay in universe.layout())
        self._grouped: list[tuple[int, int, int]] = []  # blocks kept by line
        self._lines: dict[int, set[int]] = {}  # framed members per line of a grouped block
        self._held: set[int] = set()  # all those framed members
        self._literal = set(members)  # the literal members as of the last read
        self._old: dict[int, int] = {}  # line -> its rotation at the last read, for lines to rewrite

    def turn(self, rotations: Iterable[tuple[int, int]]) -> None:
        rot, mods, old = self._rot, self._mods, self._old
        for line, r in rotations:
            if line not in mods:
                block = next(b for b in self._blocks if b[0] <= line < b[1])
                if block not in self._grouped:
                    self._group(block)
                mods[line] = block[2]
            if line not in old:
                old[line] = rot.get(line, 0)
            rot[line] = r

    def _group(self, block: tuple[int, int, int]) -> None:
        """Keep the block's members by line; none of its lines was rotated
        yet, so their framed ids are literal."""
        self._grouped.append(block)
        offset, end, mod = block
        for eid in [eid for eid in self._literal if offset <= eid < end]:
            self._held.add(eid)
            self._lines.setdefault(eid - (eid - offset) % mod, set()).add(eid)

    def read(self, named: Iterable[int], held_now: set[int]) -> set[int]:
        """The literal members, from every framed id named since the last read
        and the set of those the run holds now."""
        literal, lines, held, old, rot, mods = (
            self._literal, self._lines, self._held, self._old, self._rot, self._mods
        )
        moved = []
        for eid in named:
            now = eid in held_now
            for offset, end, mod in self._grouped:
                if offset <= eid < end:
                    if now is not (eid in held):
                        line = eid - (eid - offset) % mod
                        moved.append((eid, line, now))
                        if now:
                            held.add(eid)
                        else:
                            held.remove(eid)
                        if line not in old:
                            old[line] = rot.get(line, 0)
                            mods[line] = mod
                    break
            else:  # a block no rotation named: its framed ids are literal
                if now:
                    literal.add(eid)
                else:
                    literal.discard(eid)
        # frame_id(eid, line, -r, mod), inlined: these run once per member
        literal.difference_update([
            line + (eid - line + r) % mods[line] for line, r in old.items() for eid in lines.get(line, ())
        ])
        for eid, line, now in moved:
            if now:
                lines.setdefault(line, set()).add(eid)
            else:
                lines[line].remove(eid)
        literal.update([
            line + (eid - line + rot.get(line, 0)) % mods[line] for line in old for eid in lines.get(line, ())
        ])
        old.clear()
        return set(literal)


def swap_perm(universe: UniverseSpec, *pairs: tuple[int, int]) -> PermutationSpec:
    """Convenience builder for a single-stage swap permutation."""
    return PermutationSpec(universe, (SwapStage(tuple(pairs)),))
