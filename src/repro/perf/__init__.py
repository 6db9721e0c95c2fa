"""Performance instrumentation for the event engine.

Attach exact counters to a run with::

    from repro.perf import profiling

    with profiling() as probe:
        run_experiment()          # simulators self-register
    print(probe.events, probe.peak_heap)

``python -m repro profile <cell-key>`` adds cProfile hotspots for one
harness cell (see :mod:`repro.perf.profile`).  Timing the code is the
job of the repository benchmark, ``python3 bench/run.py``.
"""

from repro.perf.counters import PerfProbe, profiling

__all__ = [
    "PerfProbe",
    "profiling",
]
