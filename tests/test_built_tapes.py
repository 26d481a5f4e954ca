"""Each instance builds its whole tape in one pass, the first time a run or a
law needs it, and keeps it as a tuple."""
import pytest

from pairsketch import heavy_edges
from pairsketch.sketch import Tape
from test_live_tapes import ESTIMATORS, _cost, compiles  # noqa: F401 (a fixture)


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
