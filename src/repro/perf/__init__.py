"""Performance instrumentation for the event engine.

Attach counters to a run with::

    from repro.perf import profiling

    with profiling() as probe:
        run_experiment()          # simulators self-register
    print(probe.events, probe.events_per_sec())

or run the curated benchmark suite from the command line::

    python -m repro bench

which writes ``BENCH_engine.json`` and gates it against
``baselines/bench_baseline.json`` (see :mod:`repro.perf.bench`).
"""

from repro.perf.counters import PerfProbe, profiling

__all__ = [
    "PerfProbe",
    "profiling",
]
