"""Round-trip epoch tracking shared by the delay-based schemes.

DUAL, CARD and Tri-S all adjust their windows "every (two) round-trip
delay(s)".  This mixin detects RTT boundaries the standard way: mark
``snd_nxt``, and when ``snd_una`` catches up one round trip has
elapsed.
"""

from __future__ import annotations

from typing import Optional


class RttEpochMixin:
    """Detect round-trip boundaries from acknowledgement progress."""

    def _epoch_init(self) -> None:
        self._epoch_mark: Optional[int] = None
        self.epoch_count = 0

    def _epoch_on_ack(self) -> bool:
        """Return True exactly once per round trip."""
        conn = self.conn
        if self._epoch_mark is None:
            self._epoch_mark = conn.snd_nxt
            return False
        if conn.snd_una < self._epoch_mark:
            return False
        self.epoch_count += 1
        self._epoch_mark = conn.snd_nxt
        return True
