"""Jain's CARD (Congestion Avoidance using Round-trip Delay).

Reconstructed from the paper's §3.2 description: the window is
adjusted once every two round-trip delays based on the *delay
gradient*::

    (WindowSize_now - WindowSize_old) x (RTT_now - RTT_old)

If the product is positive the window is decreased by one-eighth; if
negative or zero it is increased by one maximum segment size.  As the
paper notes, "the window changes during every adjustment, that is, it
oscillates around its optimal point."

Slow start and loss recovery are inherited from Reno; CARD replaces
only the congestion-avoidance growth rule (per-ACK linear growth is
disabled once out of slow start so the gradient probe is the only
window driver).
"""

from __future__ import annotations

from typing import Optional

from repro.core.epoch import RttEpochMixin
from repro.core.reno import RenoCC
from repro.tcp import constants as C


class CardCC(RttEpochMixin, RenoCC):
    """CARD: delay-gradient congestion avoidance over Reno."""

    name = "card"

    def __init__(self, decrease_factor: float = 0.875, **kwargs):
        super().__init__(**kwargs)
        self.decrease_factor = decrease_factor
        self._epoch_init()
        self._prev_window: Optional[int] = None
        self._prev_rtt: Optional[float] = None
        self.gradient_decreases = 0
        self.gradient_increases = 0

    def _grow_window(self, now: float) -> None:
        # Suppress Reno's per-ACK growth outside slow start: the
        # gradient probe is CARD's only window driver in avoidance.
        if self.cwnd < self.ssthresh:
            super()._grow_window(now)

    def on_new_ack(self, acked_bytes: int, now: float,
                   rtt_sample: Optional[float]) -> None:
        super().on_new_ack(acked_bytes, now, rtt_sample)
        if not self._epoch_on_ack() or self.epoch_count % 2 != 0:
            return
        if rtt_sample is None:
            return
        if self._prev_window is not None and self._prev_rtt is not None:
            gradient = ((self.cwnd - self._prev_window)
                        * (rtt_sample - self._prev_rtt))
            mss = self.conn.mss
            if gradient > 0:
                reduced = int(self.cwnd * self.decrease_factor)
                self.gradient_decreases += 1
                self._set_cwnd(max(2 * mss, (reduced // mss) * mss), now)
            else:
                self.gradient_increases += 1
                self._set_cwnd(min(C.MAX_CWND, self.cwnd + mss), now)
        self._prev_window = self.cwnd
        self._prev_rtt = rtt_sample
