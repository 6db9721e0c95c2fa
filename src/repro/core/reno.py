"""TCP Reno congestion control.

The baseline the paper measures against: Jacobson slow-start and
congestion avoidance, fast retransmit on three duplicate ACKs, and
fast recovery (window inflation during the duplicate-ACK stream,
deflation to ``ssthresh`` on the recovery ACK).  This is *plain* Reno,
not NewReno: a partial ACK terminates recovery, so windows with
multiple drops usually end in a coarse-grained timeout — precisely the
pathology §3.1 of the paper documents (an average of 1100 ms to
recover when ~300 ms would have sufficed).
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import CongestionControl
from repro.tcp import constants as C


class RenoCC(CongestionControl):
    """Reno: reactive loss-based congestion control."""

    name = "reno"

    def __init__(self, initial_cwnd_segments: int = 1,
                 dupack_threshold: int = C.DUPACK_THRESHOLD):
        super().__init__(initial_cwnd_segments)
        self.dupack_threshold = dupack_threshold
        self.in_recovery = False
        self._ecn_reacted_until = 0  # once-per-window ECN response
        self.ecn_reactions = 0

    # ------------------------------------------------------------------
    # ACK clocking: slow start / congestion avoidance
    # ------------------------------------------------------------------
    def on_new_ack(self, acked_bytes: int, now: float,
                   rtt_sample: Optional[float]) -> None:
        if self.in_recovery:
            # Recovery ACK: deflate the window back to ssthresh.
            self.in_recovery = False
            self._set_cwnd(max(self.ssthresh, 2 * self.conn.mss), now)
            return
        self._grow_window(now)

    def _grow_window(self, now: float) -> None:
        mss = self.conn.mss
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            # Slow start: one segment per ACK (exponential per RTT).
            increment = mss
        else:
            # Congestion avoidance: ~one segment per RTT.
            increment = max(1, mss * mss // cwnd)
        self._set_cwnd(min(C.MAX_CWND, cwnd + increment), now)

    # ------------------------------------------------------------------
    # Fast retransmit and fast recovery
    # ------------------------------------------------------------------
    def on_dup_ack(self, count: int, now: float) -> None:
        if count == self.dupack_threshold and not self.in_recovery:
            self._set_ssthresh(self.half_window(), now)
            self.conn.retransmit_first_unacked("fast")
            self.in_recovery = True
            self._set_cwnd(self.ssthresh + self.dupack_threshold * self.conn.mss,
                           now)
        elif count > self.dupack_threshold and self.in_recovery:
            # Each further duplicate ACK signals one more segment has
            # left the network: inflate so new data can be clocked out.
            self._set_cwnd(min(C.MAX_CWND, self.cwnd + self.conn.mss), now)

    # ------------------------------------------------------------------
    # Explicit congestion notification
    # ------------------------------------------------------------------
    def on_ecn_echo(self, now: float) -> None:
        """Congestion mark echoed: halve once per window (RFC 3168).

        The response mirrors a fast-retransmit window cut but without
        any retransmission — the data arrived; the router just asked
        us to slow down.
        """
        if self.conn.snd_una < self._ecn_reacted_until or self.in_recovery:
            return
        self._ecn_reacted_until = self.conn.snd_nxt
        self.ecn_reactions += 1
        self._set_ssthresh(self.half_window(), now)
        self._set_cwnd(max(2 * self.conn.mss, self.ssthresh), now)

    # ------------------------------------------------------------------
    # Coarse timeout
    # ------------------------------------------------------------------
    def on_coarse_timeout(self, now: float) -> None:
        # End any recovery before cutting: the timeout is a fresh loss
        # epoch, and keeping every ssthresh decrease outside recovery
        # is the invariant the runtime checker audits.
        self.in_recovery = False
        self._set_ssthresh(self.half_window(), now)
        self._set_cwnd(self.conn.mss, now)
