"""Wang & Crowcroft's DUAL congestion avoidance.

Reconstructed from the paper's §3.2 description: "The congestion
window normally increases as in Reno, but every two round-trip delays
the algorithm checks to see if the current RTT is greater than the
average of the minimum and maximum RTTs seen so far.  If it is, then
the algorithm decreases the congestion window by one-eighth."

Loss recovery (fast retransmit / fast recovery / coarse timeouts) is
inherited from Reno — DUAL is a congestion-*avoidance* overlay on the
standard machinery.
"""

from __future__ import annotations

from typing import Optional

from repro.core.epoch import RttEpochMixin
from repro.core.reno import RenoCC


class DualCC(RttEpochMixin, RenoCC):
    """DUAL: delay-threshold congestion avoidance over Reno."""

    name = "dual"

    def __init__(self, decrease_factor: float = 0.875, **kwargs):
        super().__init__(**kwargs)
        self.decrease_factor = decrease_factor
        self._epoch_init()
        self.rtt_min_seen: Optional[float] = None
        self.rtt_max_seen: Optional[float] = None
        self.delay_decreases = 0

    def on_new_ack(self, acked_bytes: int, now: float,
                   rtt_sample: Optional[float]) -> None:
        if rtt_sample is not None:
            if self.rtt_min_seen is None or rtt_sample < self.rtt_min_seen:
                self.rtt_min_seen = rtt_sample
            if self.rtt_max_seen is None or rtt_sample > self.rtt_max_seen:
                self.rtt_max_seen = rtt_sample
        super().on_new_ack(acked_bytes, now, rtt_sample)
        if not self._epoch_on_ack():
            return
        if self.epoch_count % 2 != 0:
            return  # check every *two* round trips
        if (rtt_sample is not None and self.rtt_min_seen is not None
                and self.rtt_max_seen is not None):
            threshold = (self.rtt_min_seen + self.rtt_max_seen) / 2.0
            if rtt_sample > threshold:
                mss = self.conn.mss
                reduced = int(self.cwnd * self.decrease_factor)
                self.delay_decreases += 1
                self._set_cwnd(max(2 * mss, (reduced // mss) * mss), now)
