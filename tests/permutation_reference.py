"""Per-element reference for permutations, kept for the tests."""
from pairsketch import PermutationError


def permute_set(perm, ids: set[int]) -> set[int]:
    """Image of a member set under ``perm``, one element at a time.

    The reference for the handle's bucketed update and the noiseless replay.
    """
    out = {perm.apply(e) for e in ids}
    if len(out) != len(ids):
        raise PermutationError("permutation collapsed distinct ids")
    return out
