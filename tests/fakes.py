"""A fake connection for policy unit tests.

It exposes the documented sender services a CongestionControl may use
(the list in ``repro/core/base.py``) and nothing else — no timers, no
private state — except the SACK pair (``sack_board``,
``retransmit_hole``): the SACK controller is tested over real
connections.  A controller attached to it while a checker is armed
reports its window moves to that checker, as it would on a real
connection.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.flowstats import FlowStats
from repro.tcp.rtt import FineRttEstimator
from repro.trace.tracer import ConnectionTracer


class FakeConnection:
    """Scriptable stand-in for TCPConnection (CC-facing surface only)."""

    def __init__(self, mss: int = 1024, peer_wnd: int = 50 * 1024):
        self.mss = mss
        self.peer_wnd = peer_wnd
        self.snd_una = 0
        self.snd_nxt = 0
        self.now = 0.0
        self.tracer = ConnectionTracer("fake")
        self.stats = FlowStats()
        self.fine_rtt = FineRttEstimator()
        self.retransmissions: List[str] = []
        self.first_unacked_ts: Optional[float] = None

    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def retransmit_first_unacked(self, reason: str = "fast") -> int:
        self.retransmissions.append(reason)
        if reason.startswith("fine"):
            self.stats.fine_retransmits += 1
        else:
            self.stats.fast_retransmits += 1
        # A retransmission refreshes the segment's clock.
        self.first_unacked_ts = self.now
        return self.snd_una

    def first_unacked_send_time(self) -> Optional[float]:
        return self.first_unacked_ts

    # --- test scripting helpers ---------------------------------------
    def send(self, cc, length: int = None, is_retx: bool = False) -> None:
        """Simulate sending one segment and informing the CC."""
        length = length if length is not None else self.mss
        seq = self.snd_una if is_retx else self.snd_nxt
        end = seq + length
        if not is_retx:
            self.snd_nxt = end
            if self.first_unacked_ts is None:
                self.first_unacked_ts = self.now
        self.stats.bytes_sent_total += length
        self.stats.segments_sent += 1
        cc.on_segment_sent(seq, length, end, is_retx, self.now)

    def ack(self, cc, nbytes: int = None, rtt: Optional[float] = None) -> None:
        """Simulate a new cumulative ACK for *nbytes*."""
        nbytes = nbytes if nbytes is not None else self.mss
        self.snd_una += nbytes
        self.stats.app_bytes_acked += nbytes
        if rtt is not None:
            self.fine_rtt.update(rtt)
        if self.snd_una >= self.snd_nxt:
            self.first_unacked_ts = None
        cc.on_new_ack(nbytes, self.now, rtt)
