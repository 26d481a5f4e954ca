"""One-way protocol for the Boolean hidden matching problem on a pair sketch.

An instance hides a bit b. A stream interleaves vertex bits x_v with the
edges of a partial matching, each labeled z_e = x_u XOR x_v XOR b. The
protocol keeps a sketch over (bit, vertex, tag) cells, starting from both
tag copies of (0, v) for every vertex. When a vertex bit 1 arrives, its two
cells swap to side 1. Each edge is probed with four pair queries, one per
(a, b) bit pattern; a Plus hit at pattern (a, b) yields the candidate output
a XOR b XOR z_e, patched by XORing in any endpoint bits that arrive after
the hit. A hit on a both-present query always reproduces b; the two
one-present queries can fire spuriously and always produce 1 XOR b (Plus)
or an abort (Minus).

The per-run law is exact: with |T0| = 2n, each edge contributes a correct
output with probability 1/n, a wrong output with 1/(2n), and an abort with
1/(2n), independent of everything else. Majority voting over enough copies
then recovers b.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from typing import Union

import numpy as np

from .errors import InvalidParamsError, ValidationError
from .permutation import PermutationSpec, SwapStage
from .sketch import Law, QueryGroup, QueryOutcome, Tape, count_param, create, purpose_rng
from .sketch import replay_law, run_tagged
from .universe import Block, IntRange, UniverseSpec

#: Pair-query bit patterns, probed in this order for every edge.
QUERY_ORDER = ((0, 0), (1, 1), (0, 1), (1, 0))

INTERLEAVINGS = ("shuffle", "edges-first", "bits-first")


@dataclass(frozen=True)
class VertexBit:
    v: int
    bit: int


@dataclass(frozen=True)
class EdgeLabel:
    u: int
    v: int
    z: int


StreamItem = Union[VertexBit, EdgeLabel]


@dataclass(frozen=True)
class BhmInstance:
    n: int
    alpha: Fraction
    matching: tuple[tuple[int, int], ...]
    z: tuple[int, ...]
    x: tuple[int, ...]
    b: int
    stream: tuple[StreamItem, ...]

    def __post_init__(self) -> None:
        n, alpha = count_param("n", self.n), Fraction(self.alpha)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha", alpha)
        m = alpha * n
        if n < 1 or m.denominator != 1 or not 1 <= m <= Fraction(n, 2):
            raise InvalidParamsError(
                f"need alpha*n a positive integer and 2*alpha*n <= n; "
                f"got n={n}, alpha={alpha}"
            )
        m = int(m)
        if len(self.matching) != m or len(self.z) != m:
            raise ValidationError(f"expected {m} matching edges with labels")
        if len(self.x) != n or any(bit not in (0, 1) for bit in self.x):
            raise ValidationError("x must list one bit per vertex")
        if self.b not in (0, 1):
            raise ValidationError("b must be a bit")
        used: set[int] = set()
        for i, ((u, v), z) in enumerate(zip(self.matching, self.z)):
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ValidationError(f"edge ({u}, {v}) is not a valid vertex pair", i)
            if u in used or v in used:
                raise ValidationError(f"edge ({u}, {v}) reuses a matched vertex", i)
            used |= {u, v}
            if z != self.x[u - 1] ^ self.x[v - 1] ^ self.b:
                raise ValidationError(
                    f"edge ({u}, {v}) has label {z}, inconsistent with its endpoints", i
                )
        # the stream holds exactly the items when its item maps equal the instance's and
        # every number is a plain int; else the sorted reprs decide, telling True from 1
        stream = self.stream
        bits = {it.v: it.bit for it in stream if type(it) is VertexBit}
        labels = {(it.u, it.v): it.z for it in stream if type(it) is EdgeLabel}
        if not (len(bits) + len(labels) == len(stream) and bits == dict(enumerate(self.x, 1))
                and labels == dict(zip(self.matching, self.z)) and {*map(type, chain(
                    bits, bits.values(), chain.from_iterable(labels), labels.values(),
                    self.x, chain.from_iterable(self.matching), self.z))} <= {int}):
            want: list[StreamItem] = [VertexBit(v, self.x[v - 1]) for v in range(1, n + 1)]
            want += [EdgeLabel(u, v, z) for (u, v), z in zip(self.matching, self.z)]
            if sorted(map(repr, stream)) != sorted(map(repr, want)):
                raise ValidationError("stream is not a permutation of the instance items")

    @property
    def m(self) -> int:
        return len(self.matching)

    @cached_property
    def _tape(self) -> Tape:
        """The instance's declaration: one item per stream item (see ``_item_ops``),
        each fire keyed (tag, output) by ``_output``, a pass without a hit by
        (None, None)."""
        n, universe = self.n, bhm_universe(self.n)
        edge_index = {e: i for i, e in enumerate(self.matching)}
        items = tuple(_item_ops(item, n, universe, edge_index) for item in self.stream)
        return Tape(universe, initial_members(n), items, partial(_output, self), (None, None))

    @cached_property
    def _law(self) -> Law:
        """``terminal_slabs``' law, replayed once: every sampler and gate on this
        instance reads the same ``Law``."""
        return replay_law(self._tape)

    @cached_property
    def _later(self) -> list[int]:
        """Per edge: XOR of endpoint bits that arrive after the edge in the stream."""
        edge_index = {e: i for i, e in enumerate(self.matching)}
        later_bits = [0] * (self.n + 1)
        out = [0] * self.m
        for item in reversed(self.stream):
            if isinstance(item, VertexBit):
                later_bits[item.v] ^= item.bit
            else:
                out[edge_index[(item.u, item.v)]] = later_bits[item.u] ^ later_bits[item.v]
        return out


def generate_instance(
    n: int,
    alpha: Fraction | float | str,
    b: int,
    seed: int,
    interleaving: str = "shuffle",
) -> BhmInstance:
    """Random instance with matching size alpha*n and consistent edge labels."""
    n, alpha = count_param("n", n), Fraction(alpha)
    if interleaving not in INTERLEAVINGS:
        raise InvalidParamsError(f"interleaving must be one of {INTERLEAVINGS}")
    m = alpha * n
    if n < 1 or m.denominator != 1 or not 1 <= m <= Fraction(n, 2):
        raise InvalidParamsError(
            f"need alpha*n a positive integer and 2*alpha*n <= n; got n={n}, alpha={alpha}"
        )
    m = int(m)
    rng = np.random.default_rng(seed)
    verts = rng.permutation(n)[: 2 * m] + 1
    matching = tuple(
        (int(min(verts[2 * i], verts[2 * i + 1])), int(max(verts[2 * i], verts[2 * i + 1])))
        for i in range(m)
    )
    x = tuple(int(t) for t in rng.integers(0, 2, size=n))
    z = tuple(x[u - 1] ^ x[v - 1] ^ b for u, v in matching)
    bits: list[StreamItem] = [VertexBit(v, x[v - 1]) for v in range(1, n + 1)]
    edges: list[StreamItem] = [EdgeLabel(u, v, zz) for (u, v), zz in zip(matching, z)]
    if interleaving == "edges-first":
        stream = edges + bits
    elif interleaving == "bits-first":
        stream = bits + edges
    else:
        stream = bits + edges
        order = rng.permutation(len(stream))
        stream = [stream[i] for i in order]
    return BhmInstance(n, alpha, matching, z, x, b, tuple(stream))


def bhm_universe(n: int) -> UniverseSpec:
    return UniverseSpec((Block("cell", (IntRange(0, 1), IntRange(1, n), IntRange(0, 1))),))


def _cell(n: int, a: int, v: int, t: int) -> int:
    """Id of cell (a, v, t): the one block is row-major with factor sizes (2, n, 2)."""
    return 2 * (a * n + v - 1) + t


def initial_members(n: int) -> range:
    """Both tag copies of every (0, v): the first 2n ids of the block."""
    return range(2 * n)


def _flip_perm(universe: UniverseSpec, n: int, v: int) -> PermutationSpec:
    pairs = tuple((_cell(n, 0, v, t), _cell(n, 1, v, t)) for t in (0, 1))
    return PermutationSpec(universe, (SwapStage(pairs),))


def _item_ops(item: StreamItem, n: int, universe: UniverseSpec, edge_index: dict) -> tuple:
    """A stream item's tape item: a bit-1 vertex is one (perm, None) flip, an edge
    one ``QueryGroup`` of four pair queries in ``QUERY_ORDER``, tagged (edge index, a, b)."""
    if isinstance(item, VertexBit):
        return ((_flip_perm(universe, n, item.v), None),) if item.bit else ()
    ei = edge_index[item.u, item.v]
    xs = [_cell(n, a, item.u, a ^ b) for a, b in QUERY_ORDER]
    ys = [_cell(n, b, item.v, a ^ b) for a, b in QUERY_ORDER]
    return ((QueryGroup(universe, xs, ys), tuple((ei, a, b) for a, b in QUERY_ORDER)),)


def _output(inst: BhmInstance, tag: tuple[int, int, int], outcome: QueryOutcome):
    """A fire's law key (tag, output): a Plus hit yields the candidate bit patched
    by the endpoint bits that arrive later, a Minus hit aborts (output None)."""
    ei, a, b = tag
    return tag, (a ^ b ^ inst.z[ei] ^ inst._later[ei] if outcome is QueryOutcome.PLUS else None)


def run_single(inst: BhmInstance, *, master_seed: int = 0, handle_id: int = 0) -> int | None:
    """One protocol run on a live sketch. Returns the output bit, or None."""
    tape = inst._tape
    handle = create(tape.universe, tape.members, master_seed=master_seed, handle_id=handle_id)
    return run_tagged(handle, tape)[1]


def default_copies(alpha: Fraction) -> int:
    return math.ceil(Fraction(48) / Fraction(alpha))


# -- exact terminal distribution ---------------------------------------------


def terminal_slabs(inst: BhmInstance) -> Law:
    """Exact run_single output law, from the noiseless replay.

    Misses delete deterministically, so the probability that the k-th query
    fires is a function of the initial size and that query's presence pattern
    alone; everything else telescopes away. The atoms are keyed
    (tag, output) by ``_output``, the rule run_single returns through, one per
    fire atom in replay order, then (None, None) for a pass without a hit.
    The instance builds it on the first call and keeps it.
    """
    return inst._law


def sample_outputs(inst: BhmInstance, master_seed: int, trials: int) -> np.ndarray:
    """Vectorized draws from the exact run_single distribution (-1 codes None)."""
    law = terminal_slabs(inst)
    codes = np.array([-1 if out is None else out for _, out in law.atoms], dtype=np.int8)
    return codes[law.sample(purpose_rng("bhm", master_seed), trials)]


def sample_counts(inst: BhmInstance, master_seed: int, trials: int) -> np.ndarray:
    """Per-atom counts, in ``terminal_slabs`` order, of ``trials`` draws from it."""
    return terminal_slabs(inst).draw_counts(purpose_rng("bhm", master_seed), trials)


def sample_majority(
    inst: BhmInstance, master_seed: int, meta_trials: int, copies: int | None = None
) -> np.ndarray:
    """Majority outputs of meta_trials independent vote committees.

    A committee's ones, zeros and aborts among its ``copies`` runs are one
    multinomial draw over the three outputs of the exact law; it votes 1 when
    its ones outnumber its zeros.
    """
    copies = default_copies(inst.alpha) if copies is None else count_param("copies", copies, 1)
    meta_trials = count_param("meta_trials", meta_trials)
    law = terminal_slabs(inst)
    outputs = Law({out: law.expect(lambda key: key[1] == out) for out in (1, 0, None)})
    counts = outputs.draw_counts(purpose_rng("majority", master_seed), copies, meta_trials)
    return (counts[:, 0] > counts[:, 1]).astype(np.int8)
