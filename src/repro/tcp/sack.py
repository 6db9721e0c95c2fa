"""SACK scoreboard — sender-side bookkeeping for selective ACKs.

The paper's §6 discusses selective acknowledgements (RFC 1072/1323) as
the contemporary alternative to Vegas' retransmission mechanism; this
module implements the sender half so the two can be compared (and
combined).  The scoreboard is the :class:`~repro.tcp.buffers.IntervalSet`
of byte ranges above ``snd_una`` the receiver has reported holding; it
answers "what is the first hole?" and totals the SACKed bytes for pipe
calculations.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.tcp.buffers import IntervalSet


class SackScoreboard(IntervalSet):
    """Disjoint, sorted ranges of selectively acknowledged bytes."""

    __slots__ = ()

    def advance_to(self, snd_una: int) -> None:
        """Drop bookkeeping below the cumulative ACK point."""
        kept = []
        for s, e in self.ranges:
            if e <= snd_una:
                continue
            kept.append((max(s, snd_una), e))
        self.ranges = kept

    def is_sacked(self, seq: int) -> bool:
        return any(s <= seq < e for s, e in self.ranges)

    def highest_sacked(self) -> Optional[int]:
        if not self.ranges:
            return None
        return self.ranges[-1][1]

    def next_hole(self, from_seq: int, mss: int) -> Optional[Tuple[int, int]]:
        """First un-SACKed ``(seq, length)`` chunk at or above *from_seq*.

        Holes only exist below the highest SACKed byte — data above it
        is simply unsent/unacked, not presumed lost.  Returns ``None``
        when there is no hole.
        """
        top = self.highest_sacked()
        if top is None or from_seq >= top:
            return None
        seq = from_seq
        for s, e in self.ranges:
            if seq < s:
                return seq, min(mss, s - seq)
            if seq < e:
                seq = e
        if seq < top:  # pragma: no cover - defensive; top is a block end
            return seq, mss
        return None
