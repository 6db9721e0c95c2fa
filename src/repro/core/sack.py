"""SACK-based loss recovery (the §6 comparison point).

The paper's §6 weighs selective acknowledgements against Vegas'
retransmission mechanism and asks "how Vegas and the selective ACK
mechanism work in tandem".  Two controllers answer that:

* :class:`SackRenoCC` — Reno whose fast recovery is scoreboard-driven:
  on entering recovery it halves the window once, then fills *holes*
  (un-SACKed ranges below the highest SACKed byte) instead of blindly
  resending from ``snd_una``, and partial ACKs do not abort recovery.
  This is a simplified RFC 3517-style sender with a ``HighRxt`` mark
  so each hole is retransmitted once per recovery episode.

* :class:`SackVegasCC` — Vegas with the same hole repair grafted onto
  its loss paths: the fine-grained clocks still decide *when* loss has
  happened and how the window reacts; the scoreboard tells the sender
  *which* segments above ``snd_una`` also need repair, so multi-loss
  windows heal in one round trip instead of one loss per RTT.

Both declare ``uses_sack``, so an active open offers SACK on its SYN
and the accepting end generates blocks.  On a connection that did not
negotiate it (a passive open whose peer made no offer) ``sack_board``
is ``None``, no hole is ever found, and recovery retransmits from
``snd_una`` only.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.reno import RenoCC
from repro.core.vegas import VegasCC
from repro.tcp import constants as C


class HoleRepairMixin:
    """Scoreboard-guided retransmission with a HighRxt guard."""

    uses_sack = True

    def _holes_init(self) -> None:
        self.high_rxt = 0
        self.hole_retransmits = 0

    def _next_hole(self, start: int) -> Optional[Tuple[int, int]]:
        """The peer's first un-SACKed chunk at or above *start*."""
        board = self.conn.sack_board
        if board is None:
            return None
        return board.next_hole(start, self.conn.mss)

    def _sacked_bytes(self) -> int:
        board = self.conn.sack_board
        return 0 if board is None else board.covered_bytes()

    def _repair_next_hole(self, limit: Optional[int] = None) -> bool:
        """Retransmit the first not-yet-repaired hole; True if sent.

        ``limit`` bounds the repair to sequence numbers below it (the
        recovery point); ``HighRxt`` ensures each hole is sent once.
        """
        conn = self.conn
        hole = self._next_hole(max(conn.snd_una, self.high_rxt))
        if hole is None:
            return False
        seq, length = hole
        if limit is not None and seq >= limit:
            return False
        self.high_rxt = seq + length
        self.hole_retransmits += 1
        conn.retransmit_hole(seq, length)
        return True

    def _holes_note_ack(self) -> None:
        if self.conn.snd_una > self.high_rxt:
            self.high_rxt = self.conn.snd_una

    def _holes_reset(self) -> None:
        self.high_rxt = self.conn.snd_una
        if self.conn.sack_board is not None:
            self.conn.sack_board.clear()  # RFC 2018: SACK info is advisory


class SackRenoCC(HoleRepairMixin, RenoCC):
    """Reno with scoreboard-driven (RFC 3517-style) fast recovery."""

    name = "reno-sack"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.recovery_point = 0
        self._holes_init()

    def on_dup_ack(self, count: int, now: float) -> None:
        conn = self.conn
        if not self.in_recovery and (count >= self.dupack_threshold
                                     or self._sacked_bytes()
                                     > self.dupack_threshold * conn.mss):
            # Enter recovery: one multiplicative decrease, then fill
            # holes under the scoreboard's guidance.
            self.recovery_point = conn.snd_nxt
            self._set_ssthresh(self.half_window(), now)
            self.in_recovery = True
            self._set_cwnd(self.ssthresh + self.dupack_threshold * conn.mss,
                           now)
            if not self._repair_next_hole(self.recovery_point):
                conn.retransmit_first_unacked("fast")
                self.high_rxt = max(self.high_rxt,
                                    conn.snd_una + conn.mss)
            return
        if self.in_recovery:
            # Each further dup ACK: inflate and repair the next hole.
            self._set_cwnd(min(C.MAX_CWND, self.cwnd + conn.mss), now)
            self._repair_next_hole(self.recovery_point)

    def on_new_ack(self, acked_bytes: int, now: float,
                   rtt_sample: Optional[float]) -> None:
        self._holes_note_ack()
        if self.in_recovery and self.conn.snd_una < self.recovery_point:
            # Partial ACK: stay in recovery, repair the next hole.
            if not self._repair_next_hole(self.recovery_point):
                self.conn.retransmit_first_unacked("fast")
                self.high_rxt = max(self.high_rxt,
                                    self.conn.snd_una + self.conn.mss)
            deflated = max(self.ssthresh,
                           self.cwnd - acked_bytes + self.conn.mss)
            self._set_cwnd(min(C.MAX_CWND, deflated), now)
            return
        super().on_new_ack(acked_bytes, now, rtt_sample)

    def on_coarse_timeout(self, now: float) -> None:
        self._holes_reset()
        super().on_coarse_timeout(now)


class SackVegasCC(HoleRepairMixin, VegasCC):
    """Vegas working in tandem with selective acknowledgements.

    Vegas' own mechanisms are unchanged — the fine-grained clocks
    still detect losses and apply the epoch-guarded decreases — but
    whenever duplicate or partial ACKs reveal holes *beyond* the first
    unacknowledged segment, the scoreboard repairs them immediately
    instead of one-per-round-trip through the §3.1 ACK checks.
    """

    name = "vegas-sack"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._holes_init()

    def on_dup_ack(self, count: int, now: float) -> None:
        super().on_dup_ack(count, now)
        conn = self.conn
        # Repair one hole per duplicate ACK beyond the first segment
        # (which Vegas' fast/fine paths own).
        hole = self._next_hole(max(conn.snd_una + conn.mss, self.high_rxt))
        if hole is not None:
            seq, length = hole
            self.high_rxt = seq + length
            self.hole_retransmits += 1
            conn.retransmit_hole(seq, length)

    def on_new_ack(self, acked_bytes: int, now: float,
                   rtt_sample: Optional[float]) -> None:
        self._holes_note_ack()
        super().on_new_ack(acked_bytes, now, rtt_sample)
        # After a retransmission, partial ACKs expose remaining holes;
        # repair one per ACK while the post-retransmit window is open.
        if self.acks_after_retx > 0:
            self._repair_next_hole()

    def on_coarse_timeout(self, now: float) -> None:
        self._holes_reset()
        super().on_coarse_timeout(now)
