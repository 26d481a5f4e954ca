"""Op tapes: the live sketch operations of one estimator instance, built once.

An instance builds its tape's items in one ordered pass over its stream and
holds the tape in a ``cached_property``, so every copy run on the instance and
its exact law walk the same items.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .universe import UniverseSpec


@dataclass(frozen=True)
class Tape:
    """Ops over ``universe``, one tape item per stream item, in the format of
    ``sketch.run_tagged`` (heavy edges' shared stream tape: each edge's update
    and rotations). Every run, live or replayed, starts from ``members``."""

    universe: UniverseSpec
    members: range
    items: tuple

    def __iter__(self) -> Iterator:
        return iter(self.items)
