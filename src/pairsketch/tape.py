"""Op tapes: the live sketch operations of one estimator instance, compiled once.

A ``Tape`` compiles a stream item's operations the first time a pass reaches
it and keeps them, so the copies run on one instance share one compilation and
a pass that stops early compiles nothing past where it stopped. Instances hold
their tape in a ``cached_property``, so it lives as long as the instance.
"""
from __future__ import annotations

from typing import Callable, Iterator

from .universe import UniverseSpec


class Tape:
    """Ops over ``universe`` of ``count`` stream items, iterated as whole items;
    ``compile_item(k)`` gives item k, in the format of ``sketch.run_tagged``
    (heavy edges' shared stream tape: each edge's update and rotations). Every
    run, live or replayed, starts from ``members``. Items compile once each and
    in order, so ``compile_item`` may carry state from one to the next."""

    __slots__ = ("universe", "members", "_compile", "_items")

    def __init__(
        self,
        universe: UniverseSpec,
        members: range,
        count: int,
        compile_item: Callable[[int], tuple],
    ):
        self.universe, self.members, self._compile = universe, members, compile_item
        self._items: list[tuple | None] = [None] * count

    def __iter__(self) -> Iterator:
        items = self._items
        for k, item in enumerate(items):
            if item is None:
                item = items[k] = self._compile(k)
            yield item
