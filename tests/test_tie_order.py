"""Today's results depend on the order of simultaneous events.

The engine breaks ties between events at the same instant by insertion
order (first in, first out).  That order is an accident of which code
scheduled first: at a router, a bottleneck departure and a LAN arrival
can fall on the same instant, and insertion order decides whether the
arriving packet finds a free buffer.  These tests reverse the order —
``_push`` is patched to hand out decreasing sequence numbers, so among
equal times the latest insertion fires first — and pin which metrics
move on two quick cells.  A tie rule that removes the dependence will
make them fail, and should rewrite them.
"""

import pytest

from repro.harness.registry import Cell, run_cell
from repro.sim.engine import Simulator

#: Each cell, and the metrics that reversed ties change on it.
MOVED = {
    Cell.make("table3", background="vegas", buffers=10, seed=0,
              transfer="reno"):
        {"background_throughput_kbps", "transfer_throughput_kbps",
         "events_processed"},
    Cell.make("allvegas", buffers=20, cc="reno", seed=0):
        {"goodput_kbps", "retransmit_kb", "coarse_timeouts",
         "conversations", "telnet_mean_response_s", "events_processed"},
}


@pytest.fixture
def reversed_ties(monkeypatch):
    """Patch the engine so equal-time events fire last in, first out."""
    push = Simulator._push

    def push_lifo(self, entry):
        push(self, entry)
        self._seq -= 2  # _push stepped it up by one

    def arm():
        monkeypatch.setattr(Simulator, "_push", push_lifo)

    return arm


def test_reversed_ties_move_the_pinned_metrics(reversed_ties):
    fifo = {cell: run_cell(cell) for cell in MOVED}
    reversed_ties()
    lifo = {cell: run_cell(cell) for cell in MOVED}
    for cell, moved in MOVED.items():
        assert set(lifo[cell]) == set(fifo[cell])
        assert {name for name in fifo[cell]
                if lifo[cell][name] != fifo[cell][name]} == moved, cell.key
    # The largest move: the Reno transfer against Vegas background
    # traffic more than doubles its throughput.
    table3 = next(iter(MOVED))
    assert fifo[table3]["transfer_throughput_kbps"] == pytest.approx(34.24,
                                                                     abs=0.01)
    assert lifo[table3]["transfer_throughput_kbps"] == pytest.approx(79.45,
                                                                     abs=0.01)


def test_reversed_ties_reverse_equal_time_dispatch(reversed_ties):
    reversed_ties()
    sim = Simulator()
    fired = []
    for name in "abc":
        sim.schedule_anon(1.0, fired.append, name)
    sim.schedule(0.5, fired.append, "early")
    sim.run()
    assert fired == ["early", "c", "b", "a"]
