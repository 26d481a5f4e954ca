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
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Union

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
                compiled.append(self._compile_shift(stage))
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

    def _compile_shift(self, stage: CyclicShift) -> _CompiledShift:
        try:
            block_index, block, offset = self.universe.entry(stage.block)
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
        lay = self.universe.layout()[block_index]
        lines = frozenset(
            offset + sum(i * stride for i, stride in zip(idx, lay.strides))
            for idx in product(*axes)
        )
        return _CompiledShift(offset, lay.end, lay.mod, stage.amount % lay.mod, lines)

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


def swap_perm(universe: UniverseSpec, *pairs: tuple[int, int]) -> PermutationSpec:
    """Convenience builder for a single-stage swap permutation."""
    return PermutationSpec(universe, (SwapStage(tuple(pairs)),))
