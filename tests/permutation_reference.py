"""Value-space reference for permutations, and framing of reference member
sets, kept for the tests."""
from pairsketch import PermutationError, SwapStage
from pairsketch.permutation import Frame


def permute_set(perm, ids: set[int]) -> set[int]:
    """Image of a member set under ``perm``, read from its declared stages.

    Each id is decoded to its (block, values) address: a swap exchanges the
    declared ids, and a shift moves the last value of every address whose
    leading values its selection admits. It never reads the compiled stages
    or ``apply``, which the handle's store, the noiseless replay and the
    state-vector backend all share.
    """
    universe = perm.universe
    current = set(ids)
    for stage in perm.stages:
        if isinstance(stage, SwapStage):
            other = {**dict(stage.pairs), **{b: a for a, b in stage.pairs}}
            current = {other.get(eid, eid) for eid in current}
            continue
        last = universe.block(stage.block).factors[-1]
        moved = set()
        for eid in current:
            name, values = universe.decode(eid)
            if name == stage.block and all(
                sel is None or v in sel for sel, v in zip(stage.select, values)
            ):
                k = (last.index(values[-1]) + stage.amount) % last.size
                eid = universe.encode(name, values[:-1] + (last.value(k),))
            moved.add(eid)
        current = moved
    if len(current) != len(ids):
        raise PermutationError("permutation collapsed distinct ids")
    return current


def frame_steps(universe, updates, sets):
    """``sets[k]`` framed by the shifts of ``updates[0..k]``, for each k.

    Runs on framed ops hold framed ids (``permutation.Frame``). Framing is a
    bijection, so such a run's members equal a literal reference set exactly
    when they equal its framed image; framing each reference set once costs
    less than unframing every observed one.
    """
    frame = Frame(universe)
    out = []
    for perm, ids in zip(updates, sets):
        frame.fold(perm.stages)
        out.append({frame(eid) for eid in ids})
    return out
