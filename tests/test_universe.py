import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairsketch import Block, IntRange, Labels, UniverseSpec
from pairsketch.errors import PermutationError


def test_two_factor_block_is_row_major():
    u = UniverseSpec((Block("cell", (IntRange(1, 2), Labels(("H", "T")))),))
    assert u.encode("cell", (1, "H")) == 0
    assert u.encode("cell", (1, "T")) == 1
    assert u.encode("cell", (2, "H")) == 2
    assert u.encode("cell", (2, "T")) == 3
    assert u.decode(3) == ("cell", (2, "T"))


def test_single_range_block_offsets_by_lo():
    u = UniverseSpec((Block("v", (IntRange(1, 4),)),))
    assert u.encode("v", (3,)) == 2
    assert u.size == 4


def test_blocks_are_laid_out_in_declaration_order():
    u = UniverseSpec(
        (
            Block("a", (IntRange(0, 2),)),
            Block("b", (IntRange(1, 2), Labels(("x", "y")))),
        )
    )
    assert u.size == 3 + 4
    assert u.block_offset("b") == 3
    assert u.encode("b", (1, "y")) == 4
    assert u.decode(0) == ("a", (0,))
    assert u.decode(6) == ("b", (2, "y"))


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        IntRange(3, 2)
    with pytest.raises(ValueError):
        Labels(("H", "H"))
    with pytest.raises(ValueError):
        Block("b", ())
    with pytest.raises(TypeError):  # a block is its name and factors, nothing more
        Block("b", (IntRange(0, 1), IntRange(0, 1)), bucket_depth=1)
    with pytest.raises(ValueError):
        UniverseSpec((Block("a", (IntRange(0, 1),)), Block("a", (IntRange(0, 1),))))
    u = UniverseSpec((Block("v", (IntRange(1, 4),)),))
    with pytest.raises(ValueError):
        u.encode("v", (9,))
    with pytest.raises(KeyError):
        u.encode("w", (1,))
    with pytest.raises(ValueError):
        u.decode(4)
    with pytest.raises(PermutationError):
        u.check_id(-1)


@st.composite
def universes(draw):
    n_blocks = draw(st.integers(1, 3))
    blocks = []
    for i in range(n_blocks):
        n_factors = draw(st.integers(1, 3))
        factors = []
        for _ in range(n_factors):
            if draw(st.booleans()):
                lo = draw(st.integers(-3, 3))
                factors.append(IntRange(lo, lo + draw(st.integers(0, 4))))
            else:
                k = draw(st.integers(1, 3))
                factors.append(Labels(tuple(f"L{j}" for j in range(k))))
        blocks.append(Block(f"b{i}", tuple(factors)))
    return UniverseSpec(tuple(blocks))


@given(universes(), st.data())
def test_encode_decode_roundtrip(u, data):
    eid = data.draw(st.integers(0, u.size - 1))
    name, values = u.decode(eid)
    assert u.encode(name, values) == eid


@given(universes())
def test_ids_cover_all_tuples_once(u):
    seen = {u.decode(eid) for eid in range(u.size)}
    assert len(seen) == u.size


# -- the cached tables against the per-call loops they replace ----------------


def _ref_block(u, name):
    for b in u.blocks:
        if b.name == name:
            return b
    raise KeyError(name)


def _ref_block_offset(u, name):
    off = 0
    for b in u.blocks:
        if b.name == name:
            return off
        off += b.size
    raise KeyError(name)


def _ref_strides(block):
    out = [1] * len(block.factors)
    for j in range(len(block.factors) - 2, -1, -1):
        out[j] = out[j + 1] * block.factors[j + 1].size
    return tuple(out)


def _ref_layout(u):
    out = []
    off = 0
    for b in u.blocks:
        out.append((off, off + b.size, _ref_strides(b), b.factors[-1].size))
        off += b.size
    return out


@given(universes(), st.data())
def test_tables_match_the_per_call_loops(u, data):
    for i, b in enumerate(u.blocks):
        assert u.block(b.name) is _ref_block(u, b.name)
        assert u.block_offset(b.name) == _ref_block_offset(u, b.name)
        assert u.entry(b.name) == (i, b, _ref_block_offset(u, b.name))
        assert b.strides() == _ref_strides(b)
    layout = [(lay.offset, lay.end, lay.strides, lay.mod) for lay in u.layout()]
    assert layout == _ref_layout(u)
    assert u.layout() is u.layout()
    eid = data.draw(st.integers(0, u.size - 1))
    name, values = u.decode(eid)
    block = _ref_block(u, name)
    assert u.encode(name, values) == _ref_block_offset(u, name) + block.local_index(values)
    # the cyclic line of an id starts at the first value of its last factor:
    # a block's lines are runs of ``mod`` ids from its offset
    first = values[:-1] + (block.factors[-1].value(0),)
    lay = u.layout()[u.entry(name)[0]]
    assert eid - (eid - lay.offset) % lay.mod == u.encode(name, first)


def test_unknown_block_names_still_raise_key_error():
    u = UniverseSpec((Block("v", (IntRange(1, 4),)),))
    for lookup in (u.block, u.block_offset, u.entry, lambda name: u.encode(name, (1,))):
        with pytest.raises(KeyError, match="no block named 'w'"):
            lookup("w")
