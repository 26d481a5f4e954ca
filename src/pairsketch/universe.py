"""Finite product universes and their integer encodings.

A universe is a disjoint union of named blocks; each block is a cartesian
product of factors (inclusive integer ranges or label sets). Every element has
two addresses: a (block name, value tuple) pair and a flat integer id. Ids
enumerate blocks in declaration order and tuples within a block in row-major
order, so the LAST factor of a block is the fastest-varying one.

Example: a block with factors (IntRange(1, 2), Labels(("H", "T"))) encodes
(1, "H") -> 0, (1, "T") -> 1, (2, "H") -> 2, (2, "T") -> 3.

A *cyclic line* is the set of ids of one block that differ only in the last
coordinate; it is named by its first id. Cyclic shifts rotate whole lines; a
sketch keeps them as per-line rotations in a ``permutation.Frame``.

The geometry is computed once per object: a block's strides, and a universe's
per-block layout and name -> (block index, block, offset) table, are cached
on first use, so ``block``, ``block_offset``, ``encode`` and ``layout`` are
lookups.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Union

from .errors import PermutationError


@dataclass(frozen=True)
class IntRange:
    """Inclusive integer range factor: IntRange(1, 4) means {1, 2, 3, 4}."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"empty range [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def index(self, value: object) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{value!r} is not an integer")
        if not self.lo <= value <= self.hi:
            raise ValueError(f"{value} outside [{self.lo}, {self.hi}]")
        return value - self.lo

    def value(self, index: int) -> int:
        return self.lo + index


@dataclass(frozen=True)
class Labels:
    """Finite label factor: Labels(("H", "T")) with H -> 0, T -> 1."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("label factor needs at least one label")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate labels in {self.names}")

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, value: object) -> int:
        try:
            return self.names.index(value)  # type: ignore[arg-type]
        except ValueError:
            raise ValueError(f"{value!r} is not one of {self.names}") from None

    def value(self, index: int) -> str:
        return self.names[index]


Factor = Union[IntRange, Labels]


@dataclass(frozen=True)
class Block:
    """A named cartesian product of factors."""

    name: str
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError(f"block {self.name!r} has no factors")

    @property
    def size(self) -> int:
        return prod(f.size for f in self.factors)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        out = [1] * len(self.factors)
        for j in range(len(self.factors) - 2, -1, -1):
            out[j] = out[j + 1] * self.factors[j + 1].size
        return tuple(out)

    def strides(self) -> tuple[int, ...]:
        return self._strides

    def local_index(self, values: tuple) -> int:
        if len(values) != len(self.factors):
            raise ValueError(
                f"block {self.name!r} expects {len(self.factors)} coordinates, "
                f"got {values!r}"
            )
        idx = 0
        for factor, value in zip(self.factors, values):
            idx = idx * factor.size + factor.index(value)
        return idx

    def local_values(self, index: int) -> tuple:
        out = []
        for stride, factor in zip(self.strides(), self.factors):
            out.append(factor.value(index // stride % factor.size))
        return tuple(out)


@dataclass(frozen=True)
class UniverseSpec:
    """Disjoint union of blocks with a flat integer id space."""

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        names = [b.name for b in self.blocks]
        if not names:
            raise ValueError("universe needs at least one block")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate block names: {names}")

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    @cached_property
    def _table(self) -> dict[str, tuple[int, Block, int]]:
        return {
            b.name: (i, b, lay.offset)
            for i, (b, lay) in enumerate(zip(self.blocks, self.layout()))
        }

    def entry(self, name: str) -> tuple[int, Block, int]:
        """(block index, block, offset) of the block called ``name``."""
        try:
            return self._table[name]
        except KeyError:
            raise KeyError(f"no block named {name!r}") from None

    def block(self, name: str) -> Block:
        return self.entry(name)[1]

    def block_offset(self, name: str) -> int:
        return self.entry(name)[2]

    def encode(self, block_name: str, values: tuple) -> int:
        _, block, offset = self.entry(block_name)
        return offset + block.local_index(values)

    def decode(self, eid: int) -> tuple[str, tuple]:
        off = 0
        for b in self.blocks:
            if eid < off + b.size:
                return b.name, b.local_values(eid - off)
            off += b.size
        raise ValueError(f"id {eid} outside universe of size {self.size}")

    def contains_id(self, eid: int) -> bool:
        return isinstance(eid, int) and not isinstance(eid, bool) and 0 <= eid < self.size

    def check_id(self, eid: int) -> None:
        if not self.contains_id(eid):
            raise PermutationError(f"id {eid!r} outside universe of size {self.size}")

    def layout(self) -> tuple[_BlockLayout, ...]:
        """Precomputed (offset, end, strides, mod) per block, for hot paths."""
        return self._layout

    @cached_property
    def _layout(self) -> tuple[_BlockLayout, ...]:
        out = []
        off = 0
        for b in self.blocks:
            out.append(_BlockLayout(off, off + b.size, b.strides(), b.factors[-1].size))
            off += b.size
        return tuple(out)


@dataclass(frozen=True)
class _BlockLayout:
    """Where a block's ids lie; ``mod`` is the length of its cyclic lines."""

    offset: int
    end: int
    strides: tuple[int, ...]
    mod: int
