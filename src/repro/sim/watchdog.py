"""Simulation liveness watchdog: detect stalls instead of hanging.

Fault profiles can drive a topology into regimes where the simulation
makes no forward progress — a permanently-down flap schedule leaves
TCP retransmitting into the void while its timers tick the clock
forward forever, or the event heap drains mid-transfer after an abort.
Without a guard such a run either spins until its horizon (wasting the
cell's entire wall-clock budget) or silently returns partial metrics.

The :class:`LivenessWatchdog` is the opt-in guard.  It is armed under
the ``watchdog`` role of :mod:`repro.sim.observers`: components
register with it at *construction* time, and its hooks are piggybacked
on the engine's run loop — the watchdog never schedules events, so
``events_processed`` is bit-identical with the watchdog on.  When it
detects a stall it raises a typed
:class:`~repro.errors.SimulationStalled` carrying a snapshot of every
registered connection's sender state (``snd_una``/``snd_nxt``, flight,
retransmit-timer status) so the failure is diagnosable post mortem.

Stall conditions:

* **no-progress** — simulated time advanced ``stall_after`` seconds
  while at least one registered connection had unfinished work
  (unacked flight, queued-but-unsent bytes, an unacked FIN, or an
  abort) and *no* connection's progress counter moved.
* **queue-drained** — a ``run()`` call ended with the event heap empty
  while some connection still had unfinished work: nothing can ever
  complete it.

A cleanly closed connection is forgotten within a few audits (its
final progress folded into a retired total): cells with tcplib
background traffic build thousands of short connections, and an audit
that walked every dead one every 64 events cost three times the run it
guarded.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.errors import SimulationStalled
from repro.sim.observers import Instrument, armed

#: Default window (simulated seconds) of zero progress that counts as
#: a stall.  Generous against delayed handshakes and coarse timeouts:
#: a healthy connection acknowledges *something* well within this.
DEFAULT_STALL_AFTER = 30.0

#: How many engine events pass between progress audits.  Purely a
#: constant-factor knob: audits read state and schedule nothing.
DEFAULT_CHECK_EVERY = 64

#: Audits between two passes that retire closed connections.  A pass
#: tests ``is_closed`` on every registered connection where an audit
#: only reads its progress, so it runs at a fraction of the audit rate;
#: a dead connection is summed for at most this many audits more.
_RETIRE_EVERY = 16


class LivenessWatchdog(Instrument):
    """Opt-in stall detector for one simulation run.

    Registered connections must expose ``liveness_progress()`` (a
    monotone counter that moves whenever the connection advances),
    ``has_unfinished_work()``, ``liveness_snapshot()`` and the
    ``is_closed`` / ``aborted`` attributes (closed and not aborted is
    what lets the watchdog forget a connection) — see
    :class:`repro.tcp.connection.TCPConnection`.
    """

    def __init__(self, stall_after: float = DEFAULT_STALL_AFTER,
                 check_every: int = DEFAULT_CHECK_EVERY):
        if stall_after <= 0:
            raise ValueError(
                f"stall_after must be positive, got {stall_after}")
        self.stall_after = stall_after
        self.check_every = max(1, int(check_every))
        self._connections: List[Any] = []
        self._retired = 0
        self._tick = 0
        self._last_progress = -1
        self._since = 0.0

    # ------------------------------------------------------------------
    # Registration (construction-time, see repro.sim.observers)
    # ------------------------------------------------------------------
    def register_simulator(self, sim) -> None:
        """A fresh simulator starts a fresh liveness episode."""
        self._connections = []
        self._retired = 0
        self._tick = 0
        self._last_progress = -1
        self._since = sim.now

    def register_connection(self, conn) -> None:
        self._connections.append(conn)

    # ------------------------------------------------------------------
    # Progress model
    # ------------------------------------------------------------------
    def _progress(self) -> int:
        total = self._retired
        for conn in self._connections:
            total += conn.liveness_progress()
        return total

    def _retire(self) -> None:
        """Forget cleanly closed connections, keeping their final
        progress in ``_retired`` so the sum stays monotone.  Aborted
        ones stay: they are unfinished forever (see
        ``TCPConnection.has_unfinished_work``)."""
        live = []
        for conn in self._connections:
            if conn.is_closed and not conn.aborted:
                self._retired += conn.liveness_progress()
            else:
                live.append(conn)
        self._connections = live

    def _unfinished(self) -> List[Any]:
        return [c for c in self._connections if c.has_unfinished_work()]

    def snapshot(self) -> List[Dict[str, Any]]:
        """Diagnostic state of every connection not yet retired,
        unfinished connections first."""
        snap = [c.liveness_snapshot() for c in self._connections]
        snap.sort(key=lambda entry: (not entry.get("unfinished"),
                                     str(entry.get("flow"))))
        return snap

    # ------------------------------------------------------------------
    # Engine hooks (piggybacked on the run loop; never scheduled)
    # ------------------------------------------------------------------
    def on_event(self, sim, fn) -> None:
        """Periodic progress audit; raises on a no-progress window."""
        self._tick += 1
        if self._tick % self.check_every:
            return
        if self._tick % (self.check_every * _RETIRE_EVERY) == 0:
            self._retire()
        progress = self._progress()
        if progress != self._last_progress:
            self._last_progress = progress
            self._since = sim.now
            return
        if not self._unfinished():
            self._since = sim.now
            return
        stalled_for = sim.now - self._since
        if stalled_for >= self.stall_after:
            raise SimulationStalled("no-progress", sim.now,
                                    stalled_for=stalled_for,
                                    snapshot=self.snapshot())

    def on_run_end(self, sim) -> None:
        """Drained-heap audit: unfinished work that nothing can finish."""
        if sim.pending_events == 0 and self._unfinished():
            raise SimulationStalled("queue-drained", sim.now,
                                    snapshot=self.snapshot())


@contextmanager
def watching(watchdog: Optional[LivenessWatchdog] = None,
             stall_after: float = DEFAULT_STALL_AFTER):
    """Context manager: run a block with an armed watchdog.

    ::

        with watching(stall_after=10.0):
            ... build topology, run ...   # raises SimulationStalled
    """
    if watchdog is None:
        watchdog = LivenessWatchdog(stall_after=stall_after)
    with armed(watchdog=watchdog):
        yield watchdog
