"""Each instance builds its whole tape in one pass, the first time a run or a
law needs it, and keeps it as a tuple. Declarations and the tapes an instance
keeps pickle, as a process pool over instances would need."""
import pickle

import pytest

from pairsketch import heavy_edges, pseudosnapshot, triangle
from pairsketch.sketch import QueryOutcome, Tape, replay_law, run_tagged
from test_live_tapes import (  # noqa: F401 (compiles is a fixture)
    ESTIMATORS, _cost, _directed, _gnp, _snapshot, compiles,
)


@pytest.mark.parametrize("name", ESTIMATORS)
def test_each_cold_copy_builds_the_whole_tape_once(name, compiles):  # noqa: F811
    make, run, _, tape_len = ESTIMATORS[name]
    # a copy that fires on its first items still pays for the whole tape
    cold = [_cost(compiles, lambda h=h: run(make(), h)) for h in range(10)]
    assert cold == [tape_len(make())] * 10


@pytest.mark.parametrize("name", ESTIMATORS)
def test_a_tape_holds_its_items_as_a_tuple(name):
    make, run = ESTIMATORS[name][:2]
    inst = make()
    run(inst, 0)
    if name == "triangle":  # each run walks the selected part of the stream's items
        assert type(inst._items) is tuple and inst._items
        return
    tape = heavy_edges._framed_edges(inst, 2, 2) if name == "heavy" else inst._tape
    assert type(tape) is Tape and type(tape.items) is tuple
    assert list(tape) == list(tape.items) and tape.items
    assert set(vars(tape)) == {"universe", "members", "items", "key", "end_key"}


# -- declarations pickle -------------------------------------------------------------


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_a_heavy_stream_with_its_tapes_pickles():
    stream = _directed(8, 20, 2)
    outputs = [heavy_edges.run_single(stream, 2, 2, 7, handle_id=h) for h in range(20)]
    law = heavy_edges.terminal_law(stream, 2, 2)
    copy = _round_trip(stream)
    assert replay_law(copy._steps[2, 2]) == law
    assert [heavy_edges.run_single(copy, 2, 2, 7, handle_id=h) for h in range(20)] == outputs


def test_a_snapshot_plan_with_its_fire_keys_pickles():
    *args, plan = _snapshot()
    law = pseudosnapshot.terminal_law(*args, plan=plan)  # fills the plan's entry cache
    copy = _round_trip(plan)
    assert copy.fire_key.entries == plan.fire_key.entries
    assert pseudosnapshot.terminal_law(*args, plan=copy) == law
    runs = [pseudosnapshot.run_single(*args, 7, handle_id=h, plan=plan).key for h in range(20)]
    assert [pseudosnapshot.run_single(*args, 7, handle_id=h, plan=copy).key
            for h in range(20)] == runs


def test_a_triangle_stream_and_its_run_key_pickle(monkeypatch):
    stream = _gnp()
    keys = []

    def walk(handle, tape, observer=None):
        keys.append(tape.key)
        return run_tagged(handle, tape, observer)

    monkeypatch.setattr(triangle, "run_tagged", walk)
    outputs = [triangle.run_single(stream, 2, 7, handle_id=h) for h in range(20)]
    key = _round_trip(keys[0])
    assert [key(None, o) for o in QueryOutcome] == [keys[0](None, o) for o in QueryOutcome]
    copy = _round_trip(stream)
    assert triangle.terminal_law(copy, 2) == triangle.terminal_law(stream, 2)
    assert [triangle.run_single(copy, 2, 7, handle_id=h) for h in range(20)] == outputs
