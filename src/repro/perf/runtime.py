"""Process-wide activation of the performance probe.

Mirrors :mod:`repro.checks.runtime`: the probe is wired into the
engine at *construction* time — while a probe is active, every newly
built :class:`~repro.sim.engine.Simulator` registers it as one of its
observers, so the dispatch loop pays nothing per event when profiling
is off.

This module deliberately imports nothing from the rest of the package
(beyond the standard library) so that ``sim.engine`` can consult it
without creating import cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

_active = None


def active():
    """The currently active probe, or ``None``."""
    return _active


def activate(probe) -> None:
    """Install *probe* as the process-wide active probe."""
    global _active
    if _active is not None:
        raise RuntimeError("a perf probe is already active")
    _active = probe


def deactivate() -> None:
    """Remove the active probe (idempotent)."""
    global _active
    _active = None


@contextmanager
def profiling(probe: Optional[object] = None):
    """Context manager: run a block with an active probe.

    ::

        with profiling() as probe:
            run_experiment()      # simulators self-register
        print(probe.snapshot())

    A fresh :class:`~repro.perf.counters.PerfProbe` is built unless
    one is passed in.
    """
    if probe is None:
        from repro.perf.counters import PerfProbe

        probe = PerfProbe()
    activate(probe)
    try:
        yield probe
    finally:
        deactivate()
