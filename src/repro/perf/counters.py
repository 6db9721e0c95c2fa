"""Exact counters for the event engine.

A :class:`PerfProbe` is armed under the ``probe`` role of
:mod:`repro.sim.observers` and bound by every simulator built while it
is, as one of the engine's observers on the same
:class:`~repro.sim.observers.Instrument` hooks as the checker,
watchdog and gauges.  While attached it records:

* ``events`` — events dispatched across all registered simulators;
* ``peak_heap`` — the largest event-heap length observed at dispatch;
* ``component_counts`` — events per callback ``__qualname__``, i.e.
  which component (link transmit, timer tick, TCP delivery, ...) the
  engine spent its dispatches on.

All three are pure functions of the simulation, so probe counters can
participate in determinism gates.  The probe keeps no clock: a caller
that wants wall or CPU time takes ``time.perf_counter()`` or
``time.process_time()`` around its own call.

``on_event`` sits on the engine's per-event dispatch path, so it keys
the raw histogram by the callback object itself (bound methods hash
and compare by ``(__self__, __func__)`` at C speed, so per-schedule
method objects aggregate correctly) and defers the ``__qualname__``
resolution to :attr:`component_counts`, off the hot path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.sim.observers import Instrument, armed


def _component_key(fn) -> str:
    """The stable reporting key for a callback: qualname or repr."""
    return getattr(fn, "__qualname__", None) or repr(fn)


class PerfProbe(Instrument):
    """Counters for one profiled run; see the module docstring."""

    __slots__ = ("events", "peak_heap", "_raw_counts")

    def __init__(self) -> None:
        self.events = 0
        self.peak_heap = 0
        # Callback object -> count.  Keys are kept alive until the
        # probe is dropped; resolved to qualnames lazily.
        self._raw_counts: Dict[Any, int] = {}

    # -- engine hook ----------------------------------------------------
    def on_event(self, sim, fn) -> None:
        """Called by the engine before dispatching each event."""
        self.events += 1
        heap_len = sim.heap_size
        if heap_len > self.peak_heap:
            self.peak_heap = heap_len
        counts = self._raw_counts
        try:
            counts[fn] += 1
        except KeyError:
            counts[fn] = 1
        except TypeError:
            # Unhashable callable: fall back to its reporting key.
            key = _component_key(fn)
            counts[key] = counts.get(key, 0) + 1

    @property
    def component_counts(self) -> Dict[str, int]:
        """Events per callback ``__qualname__`` (or ``repr``)."""
        merged: Dict[str, int] = {}
        for fn, n in self._raw_counts.items():
            key = fn if isinstance(fn, str) else _component_key(fn)
            merged[key] = merged.get(key, 0) + n
        return merged

    # -- reporting ------------------------------------------------------
    def top_components(self, n: int = 10) -> List[tuple]:
        """The *n* busiest callbacks as ``(qualname, count)`` pairs."""
        ranked = sorted(self.component_counts.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PerfProbe(events={self.events}, "
                f"peak_heap={self.peak_heap}, "
                f"components={len(self._raw_counts)})")


@contextmanager
def profiling(probe: Optional[PerfProbe] = None):
    """Context manager: run a block with an armed probe.

    ::

        with profiling() as probe:
            run_experiment()      # simulators self-register
        print(probe.events, probe.peak_heap)

    A fresh :class:`PerfProbe` is built unless one is passed in.
    """
    if probe is None:
        probe = PerfProbe()
    with armed(probe=probe):
        yield probe
