"""Value-space reference for permutations, the generic fold of a fixed op
sequence into framed ids, and framing of reference member sets, kept for the
tests."""
from pairsketch import CyclicShift, PermutationError, SwapStage
from pairsketch.permutation import Frame, compile_shift


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


def fold(frame, stages):
    """Walk ``stages`` in order on ``frame``: the framed swap stages, and the
    rotation each line the shifts named ends up with.

    Each shift adds to the rotation of the lines it names (``Frame.turn``)
    and emits nothing; each swap is emitted on the framed ids of its pairs.
    The estimators frame their fixed op sequences by their own arithmetic;
    this is the generic walk they must agree with.
    """
    swaps, turned = [], {}
    for stage in stages:
        if isinstance(stage, SwapStage):
            swaps.append(SwapStage(tuple((frame(a), frame(b)) for a, b in stage.pairs)))
        elif isinstance(stage, CyclicShift):
            comp = compile_shift(frame.universe, stage)
            frame.turn(comp)
            turned.update((line, frame.rot[line]) for line in comp.lines)
        else:
            raise PermutationError(f"unknown stage type {type(stage).__name__}")
    return tuple(swaps), turned


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
        fold(frame, perm.stages)
        out.append({frame(eid) for eid in ids})
    return out
