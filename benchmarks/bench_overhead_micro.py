"""§3.2 footnote 3: the CPU overhead of Vegas' bookkeeping.

The authors measured "the penalty to be less than 5%" on SparcStations.
CPU cost of 1994 hardware is not reproducible, but the analogous
question for this implementation is: how much more per-event work does
Vegas' congestion control do than Reno's?  This benchmark runs the same
512 KB solo transfer under both controllers with a probe attached and
times each with ``time.perf_counter()``.  The tracked per-ACK number is
``core.vegas_over_reno_ack`` in the repository benchmark (``bench/``).
"""

import time

from repro.experiments.transfers import run_solo_transfer
from repro.perf import profiling
from repro.units import kb

from _report import report

ROUNDS = 3


def _solo(cc):
    """Mean wall seconds and events per round of a 512 KB solo run."""
    wall = 0.0
    with profiling() as probe:
        for _ in range(ROUNDS):
            start = time.perf_counter()
            result = run_solo_transfer(cc, size=kb(512), buffers=30, seed=0)
            wall += time.perf_counter() - start
            assert result.done, f"{cc}: solo transfer did not complete"
    return wall / ROUNDS, probe.events // ROUNDS


def _overhead():
    return _solo("reno"), _solo("vegas")


def test_vegas_bookkeeping_overhead(benchmark):
    (reno_wall, reno_events), (vegas_wall, vegas_events) = \
        benchmark.pedantic(_overhead, rounds=1, iterations=1)

    # Deterministic sanity: both transfers completed and their event
    # counts are comparable (Vegas finishes the same 512KB in a
    # slightly different number of simulated events).
    assert reno_events > 0
    assert vegas_events > 0

    # Generous bound: Vegas' per-ACK work (clock reads, one dict insert,
    # a min update) must not blow up simulation cost.  Note the Vegas
    # run can also *transfer faster* (fewer simulated events), so the
    # overhead can legitimately be negative.
    assert vegas_wall < reno_wall * 2.0
    report("overhead_micro", "\n".join([
        f"Reno  512KB solo run: {reno_wall * 1000:7.1f} ms wall"
        f"   ({reno_events} events, {reno_events / reno_wall:,.0f} ev/s)",
        f"Vegas 512KB solo run: {vegas_wall * 1000:7.1f} ms wall"
        f"   ({vegas_events} events, {vegas_events / vegas_wall:,.0f} ev/s)",
        f"relative cost: {(vegas_wall - reno_wall) / reno_wall * 100:+.1f}%"
        f"   (paper's CPU penalty: <5%)",
    ]))
