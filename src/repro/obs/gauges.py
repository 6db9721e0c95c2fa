"""Opt-in periodic gauges, piggybacked on the engine loop.

A :class:`GaugeSampler` is armed under the ``gauges`` role of
:mod:`repro.sim.observers`: components register with it at
construction time, and its hooks ride the engine's dispatch loop.  The
sampler only *reads* state and writes telemetry lines — it never
schedules an event — so ``events_processed`` is bit-identical with
gauges armed (asserted in ``tests/test_obs.py``).

Every ``sample_every`` engine events it emits one ``gauge`` event
carrying:

* the engine's clock and lifetime event count, plus wall-clock
  events/sec over the sampling window;
* per connection that is open, or closed since the previous sample:
  flow id, cwnd, ssthresh, flight size and the congestion controller's
  mode (for Vegas, slow-start vs linear);
* per registered queue: name, depth and cumulative drops.

A final sample is taken when ``run()`` returns, so short runs always
produce at least one gauge record.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from typing import Any, List, Optional

from repro.obs.events import TelemetrySink
from repro.sim.observers import Instrument, armed

#: Engine events between gauge samples.  Purely a volume knob: the
#: hooks read state and schedule nothing at any setting.
DEFAULT_SAMPLE_EVERY = 2048


class GaugeSampler(Instrument):
    """Periodic state sampler writing ``gauge`` telemetry events.

    Args:
        sink: the :class:`~repro.obs.events.TelemetrySink` to write to.
        sample_every: engine events between samples.
        cell: optional cell key stamped on every gauge record so a
            sweep's telemetry attributes samples to their cell.
    """

    def __init__(self, sink, sample_every: int = DEFAULT_SAMPLE_EVERY,
                 cell: Optional[str] = None):
        self.sink = sink
        self.sample_every = max(1, int(sample_every))
        self.cell = cell
        self._connections: List[Any] = []
        self._queues: List[Any] = []
        self._tick = 0
        self.samples_taken = 0
        self._last_wall = time.perf_counter()
        self._last_events = 0

    # ------------------------------------------------------------------
    # Registration (construction-time, see repro.sim.observers)
    # ------------------------------------------------------------------
    def register_simulator(self, sim) -> None:
        """A fresh simulator starts a fresh gauge episode."""
        self._connections = []
        self._queues = []
        self._tick = 0
        self._last_wall = time.perf_counter()
        self._last_events = 0

    def register_connection(self, conn) -> None:
        self._connections.append(conn)

    def register_queue(self, queue) -> None:
        self._queues.append(queue)

    # ------------------------------------------------------------------
    # Engine hooks (piggybacked on the run loop; never scheduled)
    # ------------------------------------------------------------------
    def on_event(self, sim, fn) -> None:
        self._tick += 1
        if self._tick % self.sample_every:
            return
        self._sample(sim, final=False)

    def on_run_end(self, sim) -> None:
        self._sample(sim, final=True)

    # ------------------------------------------------------------------
    def _sample(self, sim, final: bool) -> None:
        now_wall = time.perf_counter()
        events = sim.events_processed
        window = now_wall - self._last_wall
        rate = (events - self._last_events) / window if window > 0 else 0.0
        self._last_wall = now_wall
        self._last_events = events
        connections = [{
            "flow": str(conn.flow),
            "cwnd": conn.cc.cwnd,
            "ssthresh": conn.cc.ssthresh,
            "flight": conn.flight_size(),
            "mode": getattr(conn.cc, "mode", conn.cc.name),
        } for conn in self._connections]
        # A closed connection is reported once more, then forgotten: a
        # tcplib cell builds thousands of short ones, and listing every
        # dead one in every record made a quick sweep's log 320 MB.
        self._connections = [conn for conn in self._connections
                             if not conn.is_closed]
        queues = [{
            "name": queue.name,
            "depth": len(queue),
            "drops": queue.dropped,
            "max_depth": queue.max_depth,
        } for queue in self._queues]
        record = {
            "sim_time": round(sim.now, 6),
            "events_processed": events,
            "events_per_sec": round(rate, 1),
            "final": final,
            "connections": connections,
            "queues": queues,
        }
        if self.cell is not None:
            record["cell"] = self.cell
        self.sink.emit("gauge", **record)
        self.samples_taken += 1


@contextmanager
def observing(sampler: Optional[GaugeSampler] = None,
              path: Optional[str] = None, **kwargs):
    """Context manager: run a block with an armed gauge sampler.

    ::

        with observing(path="run.jsonl") as sampler:
            run_experiment()      # simulators/connections self-register

    A fresh :class:`GaugeSampler` writing to *path* is built unless one
    is passed in.  The sink is closed on exit — or when building the
    sampler or arming it fails — only when this function opened it.
    """
    with ExitStack() as stack:
        if sampler is None:
            if path is None:
                raise ValueError("observing() needs a sampler or a path")
            sink = stack.enter_context(TelemetrySink(path))
            sampler = GaugeSampler(sink, **kwargs)
        stack.enter_context(armed(gauges=sampler))
        yield sampler
