"""Wang & Crowcroft's Tri-S (Slow Start and Search).

Reconstructed from the paper's §3.2 description: "Every RTT, they
increase the window size by one segment and compare the throughput
achieved to the throughput when the window was one segment smaller.
If the difference is less than one-half the throughput achieved when
only one segment was in transit — as was the case at the beginning of
the connection — they decrease the window by one segment.  Tri-S
calculates the throughput by dividing the number of bytes outstanding
in the network by the RTT."

The paper observes Vegas is "most similar to Tri-S" but compares
measured against *expected* throughput instead of looking at the
throughput slope.  Loss recovery is inherited from Reno.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.epoch import RttEpochMixin
from repro.core.reno import RenoCC
from repro.tcp import constants as C


class TriSCC(RttEpochMixin, RenoCC):
    """Tri-S: throughput-slope probing over Reno."""

    name = "tri-s"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._epoch_init()
        #: Throughput observed with a single segment in transit (the
        #: slope reference).
        self.base_throughput: Optional[float] = None
        self._throughput_at_window: Dict[int, float] = {}
        self.slope_increases = 0
        self.slope_decreases = 0

    def _grow_window(self, now: float) -> None:
        # Outside slow start the throughput-slope probe is the only
        # window driver; suppress Reno's per-ACK linear growth.
        if self.cwnd < self.ssthresh:
            super()._grow_window(now)

    def on_new_ack(self, acked_bytes: int, now: float,
                   rtt_sample: Optional[float]) -> None:
        super().on_new_ack(acked_bytes, now, rtt_sample)
        if not self._epoch_on_ack() or rtt_sample is None:
            return
        mss = self.conn.mss
        # Throughput = bytes outstanding / RTT (the paper's formula).
        throughput = self.conn.flight_size() / rtt_sample
        window_segments = max(1, self.cwnd // mss)
        if self.base_throughput is None:
            # First full round trip: one segment in transit.
            self.base_throughput = max(throughput, mss / rtt_sample)
        self._throughput_at_window[window_segments] = throughput
        if self.cwnd < self.ssthresh:
            return  # slow start handles growth until the threshold
        previous = self._throughput_at_window.get(window_segments - 1)
        if previous is not None and self.base_throughput is not None:
            if throughput - previous < 0.5 * self.base_throughput:
                self.slope_decreases += 1
                self._set_cwnd(max(2 * mss, self.cwnd - mss), now)
                return
        self.slope_increases += 1
        self._set_cwnd(min(C.MAX_CWND, self.cwnd + mss), now)
