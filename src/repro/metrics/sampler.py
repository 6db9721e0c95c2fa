"""Periodic rate sampling.

The bottom panel of the paper's Figure 9 shows "the sending rate in
KB/s as seen in 100ms intervals; the thick line is a running average
(size 3)".  :class:`RateSampler` produces exactly those series from
any monotone byte counter (a host's bytes_sent, a traffic generator's
delivered bytes, a queue's throughput...).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

Series = List[Tuple[float, float]]


class RateSampler:
    """Sample a byte counter every *interval* and derive rates."""

    def __init__(self, sim: Simulator, counter: Callable[[], float],
                 interval: float = 0.1):
        if interval <= 0:
            raise ConfigurationError("sampling interval must be positive")
        self.sim = sim
        self.counter = counter
        self.interval = interval
        self.samples: Series = []  # (time, bytes/second over the interval)
        self._last_value: Optional[float] = None
        self._running = False
        self._event = None  # the pending tick while running

    def start(self, delay: float = 0.0) -> None:
        if self._running:
            return
        self._running = True
        self._last_value = None
        self._event = self.sim.schedule(delay, self._tick)

    def stop(self) -> None:
        # Cancel the pending tick: a stop()/start() cycle used to leave
        # the old tick scheduled, so the restart forked a second tick
        # chain and the series double-sampled forever after.
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        value = self.counter()
        if self._last_value is not None:
            rate = (value - self._last_value) / self.interval
            self.samples.append((self.sim.now, rate))
        self._last_value = value
        self._event = self.sim.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    def running_average(self, window: int = 3) -> Series:
        """The paper's thick line: a centered-ish running mean."""
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        out: Series = []
        for i in range(len(self.samples)):
            lo = max(0, i - window + 1)
            chunk = self.samples[lo:i + 1]
            mean = sum(v for _, v in chunk) / len(chunk)
            out.append((self.samples[i][0], mean))
        return out

    def mean_rate(self, t_start: float = 0.0,
                  t_end: Optional[float] = None) -> float:
        chunk = [v for t, v in self.samples
                 if t >= t_start and (t_end is None or t <= t_end)]
        if not chunk:
            return 0.0
        return sum(chunk) / len(chunk)
