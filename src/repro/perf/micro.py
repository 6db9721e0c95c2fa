"""§3.2 footnote 3 as a machine-readable micro-benchmark.

The paper measured Vegas' CPU bookkeeping penalty "to be less than 5%"
on SparcStations.  The analogous question here is how much more
per-event work :class:`~repro.core.vegas.VegasCC` does than Reno, so
this module runs identical solo transfers under both controllers with
a :class:`~repro.perf.counters.PerfProbe` attached and reports the
comparison as a flat dict — consumed both by ``python -m repro bench``
(the ``micro`` section of ``BENCH_engine.json``) and by the
``bench_overhead_micro`` pytest benchmark.
"""

from __future__ import annotations

from typing import Dict

from repro.perf.counters import PerfProbe, profiling


def _probe_solo(cc: str, rounds: int, size_kb: int, buffers: int) -> PerfProbe:
    from repro.experiments.transfers import run_solo_transfer
    from repro.units import kb

    with profiling() as probe:
        for _ in range(rounds):
            with probe.phase("run"):
                result = run_solo_transfer(cc, size=kb(size_kb),
                                           buffers=buffers, seed=0)
            if not result.done:
                raise RuntimeError(f"{cc}: solo transfer did not complete")
    return probe


def vegas_overhead(rounds: int = 3, size_kb: int = 512,
                   buffers: int = 30) -> Dict[str, float]:
    """Compare Reno and Vegas solo-transfer simulation cost.

    Returns per-controller wall time (mean of *rounds*), deterministic
    event counts, events/sec, and the relative Vegas overhead in
    percent.  The Vegas run also *transfers faster* (fewer simulated
    events), so the overhead can legitimately be negative.
    """
    reno = _probe_solo("reno", rounds, size_kb, buffers)
    vegas = _probe_solo("vegas", rounds, size_kb, buffers)
    reno_wall = reno.phases["run"] / rounds
    vegas_wall = vegas.phases["run"] / rounds
    return {
        "rounds": rounds,
        "reno_wall_s": reno_wall,
        "vegas_wall_s": vegas_wall,
        "overhead_pct": ((vegas_wall - reno_wall) / reno_wall * 100.0
                         if reno_wall > 0 else 0.0),
        "reno_events": reno.events // rounds,
        "vegas_events": vegas.events // rounds,
        "reno_events_per_sec": reno.events_per_sec(),
        "vegas_events_per_sec": vegas.events_per_sec(),
        "reno_peak_heap": reno.peak_heap,
        "vegas_peak_heap": vegas.peak_heap,
    }
