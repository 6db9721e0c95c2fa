"""Periodic-timer helper built on the event engine.

BSD TCP drives its protocol machinery from two free-running periodic
timers: the 500 ms "slow" timer (retransmission bookkeeping) and the
200 ms "fast" timer (delayed ACKs).  :class:`PeriodicTimer` models
exactly that: a callback invoked every *period* seconds, starting from
an optional phase offset, until stopped.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Event, Simulator


class PeriodicTimer:
    """Fire a callback every *period* seconds of simulated time.

    The first firing happens at ``start + phase + period`` (i.e. the
    timer "ticks" at the end of each period, like the BSD callout).  A
    random phase per host avoids the unrealistic situation of every
    host's coarse timer firing at the same instant.
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], Any], phase: float = 0.0):
        if period <= 0:
            raise ConfigurationError("timer period must be positive")
        if phase < 0:
            raise ConfigurationError("timer phase must be non-negative")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.phase = phase
        self._event: Optional[Event] = None
        self._running = False
        self.ticks = 0

    def start(self) -> None:
        """Begin ticking.  Starting an already-running timer is a no-op."""
        if self._running:
            return
        self._running = True
        self._event = self.sim.schedule(self.phase + self.period, self._fire)

    def stop(self) -> None:
        """Stop ticking.  Safe to call when already stopped."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def running(self) -> bool:
        return self._running

    def _fire(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self.callback()
        if self._running:
            self._event = self.sim.schedule(self.period, self._fire)
