"""The errors of the set-up validators, pinned on a table of malformed inputs.

Each validator of a swap stage, an edge list, a matching stream and an
instance file reports the first fault it meets, in order. Every fault in the
tables below is placed first, in the middle and last among valid items, and
must raise the same exception type and message, naming the same item or line,
wherever it sits.
"""
from fractions import Fraction

import numpy as np
import pytest

from pairsketch import ParseError, PermutationError, ValidationError
from pairsketch.bhm import BhmInstance, EdgeLabel, VertexBit, generate_instance
from pairsketch.harness import parse_stream, write_instance
from pairsketch.heavy_edges import DirectedEdgeStream
from pairsketch.permutation import PermutationSpec, SwapStage
from pairsketch.triangle import EdgeStream
from pairsketch.universe import Block, IntRange, UniverseSpec

SIXTEEN = UniverseSpec((Block("v", (IntRange(0, 15),)),))
PLACES = {"first": 0, "middle": 2, "last": 4}  # among four valid items

# -- swap stages ---------------------------------------------------------------------

SWAP_FILLERS = ((0, 1), (2, 3), (4, 5), (6, 7))

# (faulty pairs, placed together among the fillers; exception; message)
BAD_SWAPS = {
    "bool": (((True, 9),), PermutationError, "swap id True is not an integer"),
    "numpy bool": (((8, np.bool_(True)),), PermutationError, "swap id np.True_ is not an integer"),
    "float": (((8, 9.0),), PermutationError, "swap id 9.0 is not an integer"),
    "string": (((8, "9"),), PermutationError, "swap id '9' is not an integer"),
    "negative": (((-1, 9),), PermutationError, "id -1 outside universe of size 16"),
    "out of range": (((9, 16),), PermutationError, "id 16 outside universe of size 16"),
    "numpy out of range": (((np.int64(16), 9),), PermutationError,
                           "id 16 outside universe of size 16"),
    "degenerate": (((9, 9),), PermutationError, "swap pair (9, 9) is degenerate"),
    "overlapping": (((8, 9), (10, 9)), PermutationError, "swap pairs overlap at (10, 9)"),
    "three ids": (((8, 9, 10),), ValueError, "too many values to unpack (expected 2)"),
    "one id": (((8,),), ValueError, "not enough values to unpack (expected 2, got 1)"),
    # every id is converted before any is checked against the universe
    "range, then a float": (((-1, 9), (10, 2.5)), PermutationError,
                            "swap id 2.5 is not an integer"),
    # each pair is checked in range, then for a repeat within itself, then against the others
    "degenerate, then range": (((9, 9), (10, 16)), PermutationError,
                               "swap pair (9, 9) is degenerate"),
    "range, then overlap": (((8, 9), (9, 16)), PermutationError,
                            "id 16 outside universe of size 16"),
}


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("fault", BAD_SWAPS)
def test_a_bad_swap_raises_the_same_error_wherever_it_sits(fault, place):
    bad, exc, message = BAD_SWAPS[fault]
    at = PLACES[place]
    pairs = SWAP_FILLERS[:at] + bad + SWAP_FILLERS[at:]
    with pytest.raises(exc) as err:
        PermutationSpec(SIXTEEN, (SwapStage(pairs),))
    assert type(err.value) is exc and str(err.value) == message


@pytest.mark.parametrize("place", PLACES)
def test_numpy_swap_ids_become_plain_ints(place):
    at = PLACES[place]
    pairs = SWAP_FILLERS[:at] + ((np.int64(8), np.uint8(9)),) + SWAP_FILLERS[at:]
    stage = PermutationSpec(SIXTEEN, (SwapStage(pairs),)).stages[0]
    assert stage.pairs == SWAP_FILLERS[:at] + ((8, 9),) + SWAP_FILLERS[at:]
    assert {type(eid) for pair in stage.pairs for eid in pair} == {int}


def test_swap_pairs_given_as_lists_are_kept_as_tuples():
    stage = SwapStage([[0, 1], (2, 3)])
    assert stage.pairs == ((0, 1), (2, 3))
    assert type(stage.pairs) is tuple and {type(pair) for pair in stage.pairs} == {tuple}
    assert SwapStage(()).pairs == () and PermutationSpec(SIXTEEN, (SwapStage(()),))


# -- edge lists ------------------------------------------------------------------------

EDGE_FILLERS = ((1, 2), (3, 4), (5, 6), (7, 8))

# (faulty edges; exception; message with {0} the first faulty edge's number;
#  the index of the edge at fault, counted from the first faulty one)
BAD_EDGES = {
    "self-loop": (((9, 9),), ValidationError, "edge {0} is a self-loop at 9", 0),
    "repeat": (((2, 9), (2, 9)), ValidationError, "edge {1} (2, 9) repeats an earlier edge", 1),
    "numpy repeat": (((2, 9), (np.int64(2), 9)), ValidationError,
                     "edge {1} (2, 9) repeats an earlier edge", 1),
    "out of range": (((9, 10),), ValidationError, "edge {0} (9, 10) leaves [1, 9]", 0),
    "zero": (((0, 3),), ValidationError, "edge {0} (0, 3) leaves [1, 9]", 0),
    "float": (((1.5, 9),), ValidationError, "edge {0} (1.5, 9) has a non-integer endpoint", 0),
    "bool": (((True, 9),), ValidationError, "edge {0} (True, 9) has a non-integer endpoint", 0),
    "three ends": (((1, 9, 2),), ValueError, "too many values to unpack (expected 2)", None),
    # each edge is checked whole before the next one
    "range, then a float": (((0, 3), (1.5, 9)), ValidationError,
                            "edge {0} (0, 3) leaves [1, 9]", 0),
}
EDGE_KINDS = {"undirected": EdgeStream, "directed": DirectedEdgeStream}


def _check_edge_error(make, edges, exc, message, item):
    with pytest.raises(exc) as err:
        make(9, edges)
    assert type(err.value) is exc and str(err.value) == message
    if exc is ValidationError:
        assert err.value.item == item


@pytest.mark.parametrize("kind", EDGE_KINDS)
@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("fault", BAD_EDGES)
def test_a_bad_edge_raises_the_same_error_wherever_it_sits(fault, place, kind):
    bad, exc, message, offset = BAD_EDGES[fault]
    at = PLACES[place]
    edges = EDGE_FILLERS[:at] + bad + EDGE_FILLERS[at:]
    item = None if offset is None else at + offset
    _check_edge_error(EDGE_KINDS[kind], edges, exc, message.format(at + 1, at + 2), item)


@pytest.mark.parametrize("place", PLACES)
def test_a_reversed_repeat_is_a_repeat_only_when_undirected(place):
    at = PLACES[place]
    edges = EDGE_FILLERS[:at] + ((2, 9), (9, 2)) + EDGE_FILLERS[at:]
    _check_edge_error(EdgeStream, edges, ValidationError,
                      f"edge {at + 2} (9, 2) repeats an earlier edge", at + 1)
    assert DirectedEdgeStream(9, edges).edges == edges


@pytest.mark.parametrize("kind", EDGE_KINDS)
@pytest.mark.parametrize("place", PLACES)
def test_numpy_endpoints_become_plain_ints(kind, place):
    at = PLACES[place]
    edges = list(EDGE_FILLERS[:at]) + [[np.int64(2), np.uint8(9)]] + list(EDGE_FILLERS[at:])
    stream = EDGE_KINDS[kind](np.int64(9), edges)
    assert stream.n == 9 and type(stream.n) is int
    assert stream.edges == EDGE_FILLERS[:at] + ((2, 9),) + EDGE_FILLERS[at:]
    assert type(stream.edges) is tuple
    assert {type(x) for edge in stream.edges for x in edge} == {int}
    assert {type(edge) for edge in stream.edges} == {tuple}


@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_valid_edges_keep_their_order_and_orientation(kind):
    edges = ((5, 1), (2, 7), (9, 3), (1, 2))
    stream = EDGE_KINDS[kind](9, iter(edges))
    assert stream.edges == edges and stream.m == 4
    assert EDGE_KINDS[kind](3, ()).edges == ()


# -- matching streams ------------------------------------------------------------------

BHM = generate_instance(8, Fraction(1, 4), 1, seed=3, interleaving="shuffle")
BHM_PLACES = {"first": 0, "middle": len(BHM.stream) // 2, "last": len(BHM.stream) - 1}


def _wrong(item):
    if isinstance(item, VertexBit):
        return VertexBit(item.v, 1 - item.bit)
    return EdgeLabel(item.u, item.v, 1 - item.z)


def _reversed(item):
    if isinstance(item, VertexBit):
        return VertexBit(item.v, bool(item.bit))  # equal to the bit, but a bool
    return EdgeLabel(item.v, item.u, item.z)


BAD_STREAMS = {
    "missing": lambda s, i: s[:i] + s[i + 1:],
    "duplicated": lambda s, i: s[:i] + (s[i],) + s[i:],
    "duplicated in place of another": lambda s, i: s[:i] + (s[i - 1],) + s[i + 1:],
    "wrong": lambda s, i: s[:i] + (_wrong(s[i]),) + s[i + 1:],
    "reversed or a bool": lambda s, i: s[:i] + (_reversed(s[i]),) + s[i + 1:],
    "numpy vertex": lambda s, i: s[:i] + (
        VertexBit(np.int64(s[i].v), s[i].bit) if isinstance(s[i], VertexBit)
        else EdgeLabel(np.int64(s[i].u), s[i].v, s[i].z),) + s[i + 1:],
    "a tuple": lambda s, i: s[:i] + (tuple(vars(s[i]).values()),) + s[i + 1:],
}


@pytest.mark.parametrize("place", BHM_PLACES)
@pytest.mark.parametrize("fault", BAD_STREAMS)
def test_a_bad_matching_stream_raises_the_same_error_wherever_it_sits(fault, place):
    stream = BAD_STREAMS[fault](BHM.stream, BHM_PLACES[place])
    with pytest.raises(ValidationError) as err:
        BhmInstance(BHM.n, BHM.alpha, BHM.matching, BHM.z, BHM.x, BHM.b, stream)
    assert str(err.value) == "stream is not a permutation of the instance items"
    assert err.value.item is None


def test_a_matching_stream_in_any_order_is_accepted():
    for order in (BHM.stream, BHM.stream[::-1], tuple(sorted(BHM.stream, key=repr))):
        inst = BhmInstance(BHM.n, BHM.alpha, BHM.matching, BHM.z, BHM.x, BHM.b, order)
        assert inst.stream == order
    # a stream of bools matches an instance whose bits are bools
    bits = tuple(map(bool, BHM.x))
    stream = tuple(VertexBit(it.v, bool(it.bit)) if isinstance(it, VertexBit) else it
                   for it in BHM.stream)
    assert BhmInstance(BHM.n, BHM.alpha, BHM.matching, BHM.z, bits, BHM.b, stream).x == bits


# -- instance files ----------------------------------------------------------------------

# (bad line; message after "path:line: ", with {0} the line itself)
BAD_EDGE_LINES = {
    "non-integer": ("1 x", "non-integer field in {0!r}"),
    "float": ("1.0 2", "non-integer field in {0!r}"),
    "three fields": ("1 2 3", "expected 'u v'"),
    "one field": ("1", "expected 'u v'"),
}


@pytest.mark.parametrize("kind", EDGE_KINDS)
@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("fault", BAD_EDGE_LINES)
def test_a_bad_edge_line_is_named_wherever_it_sits(fault, place, kind, tmp_path):
    bad, message = BAD_EDGE_LINES[fault]
    at = PLACES[place]
    body = [f"{u} {v}" for u, v in EDGE_FILLERS]
    path = tmp_path / "bad.edges"
    path.write_text("9 5\n\n" + "\n".join(body[:at] + [bad] + body[at:]) + "\n")
    with pytest.raises(ParseError) as err:
        parse_stream(path, kind)
    assert str(err.value) == f"{path}:{at + 3}: " + message.format(bad)  # header, blank line


BAD_BHM_LINES = {
    "non-integer bit": ("V 1 x", "non-integer field in {0!r}"),
    "non-integer vertex": ("E 1 y 0", "non-integer field in {0!r}"),
    "short vertex line": ("V 1", "expected 'V v bit' or 'E u v z'"),
    "long edge line": ("E 1 2 0 1", "expected 'V v bit' or 'E u v z'"),
    "unknown kind": ("X 1 2", "expected 'V v bit' or 'E u v z'"),
}


@pytest.mark.parametrize("place", BHM_PLACES)
@pytest.mark.parametrize("fault", BAD_BHM_LINES)
def test_a_bad_matching_line_is_named_wherever_it_sits(fault, place, tmp_path):
    bad, message = BAD_BHM_LINES[fault]
    at = BHM_PLACES[place]
    path = tmp_path / "bad.bhm"
    write_instance(BHM, path)
    header, *body = path.read_text().splitlines()
    path.write_text("\n".join([header] + body[:at] + [bad] + body[at:]) + "\n")
    with pytest.raises(ParseError) as err:
        parse_stream(path, "bhm")
    assert str(err.value) == f"{path}:{at + 2}: " + message.format(bad)


@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_well_formed_files_read_back_equal(kind, tmp_path):
    stream = EDGE_KINDS[kind](9, ((5, 1), (2, 7), (9, 3), (1, 2)))
    path = tmp_path / "g.edges"
    write_instance(stream, path)
    assert parse_stream(path, kind) == stream
    write_instance(BHM, path)
    inst = parse_stream(path, "bhm")  # its matching lists the edges in stream order
    assert (inst.stream, inst.x, inst.b, inst.alpha) == (BHM.stream, BHM.x, BHM.b, BHM.alpha)
