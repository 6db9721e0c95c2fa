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

from repro import _lazy_exports

#: Public name -> the module that defines it.  The counters arm against
#: the engine's observer registry, so they load on first access (PEP
#: 562): the CLI declares ``profile`` without loading the simulator.
_EXPORTS = {
    "PerfProbe": "repro.perf.counters",
    "profiling": "repro.perf.counters",
}

__all__ = [
    "PerfProbe",
    "profiling",
]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
