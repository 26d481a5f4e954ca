"""Tape items as tagged script ops, for tests that compare a tape with a
literal script or sum its law through ``replay_noiseless``."""
from pairsketch import Update


def tagged_script(items):
    """The (script op, tag) pairs of the tape ``items``, in order: an update as
    ``Update``, and each query of a group as its script op beside its tag."""
    script = []
    for item in items:
        for op, tags in item:
            script += [(Update(op), None)] if tags is None else zip(op.ops(), tags)
    return script


def build_script(inst):
    """The script of a bhm run, each pair query tagged with its (edge index, a, b)."""
    return tagged_script(inst._tape)
