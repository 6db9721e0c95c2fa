"""Sender and receiver buffer models.

:class:`SendBuffer` tracks how much application data is queued but not
yet acknowledged, bounded by the socket send-buffer size — the knob the
paper sweeps in §4.3 ("Different TCP send-buffer sizes").

:class:`ReassemblyBuffer` is the receiver's out-of-order store: it
accepts segments in any order, holds the out-of-order ones in an
:class:`IntervalSet` (the byte-range set SACK's scoreboard also uses),
and reports how far the in-order prefix (``rcv_nxt``) advances.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError


class SendBuffer:
    """Accounting for unacknowledged application data at the sender.

    Sequence numbers are absolute.  ``una`` is the lowest unacked
    sequence number; ``queued_end`` is one past the last byte the
    application has queued.  The buffer accepts new application bytes
    only while ``queued_end - una`` stays within ``capacity``.
    """

    def __init__(self, capacity: int, start_seq: int = 0):
        if capacity < 1:
            raise ConfigurationError("send buffer capacity must be >= 1")
        self.capacity = capacity
        self.una = start_seq
        self.queued_end = start_seq

    @property
    def in_buffer(self) -> int:
        """Bytes currently held (queued but not yet acknowledged)."""
        return self.queued_end - self.una

    @property
    def space(self) -> int:
        """Bytes of application data the buffer can still accept."""
        return self.capacity - self.in_buffer

    def write(self, nbytes: int) -> int:
        """Queue up to *nbytes* of application data; return the accepted count."""
        if nbytes < 0:
            raise ValueError("cannot write a negative byte count")
        accepted = min(nbytes, self.space)
        self.queued_end += accepted
        return accepted

    def ack_to(self, seq: int) -> int:
        """Release bytes below *seq*; return how many were freed."""
        if seq < self.una:
            return 0
        seq = min(seq, self.queued_end)
        freed = seq - self.una
        self.una = seq
        return freed

    def rebase(self, start_seq: int) -> None:
        """Reset sequence bookkeeping (used when the ISS is chosen)."""
        if self.in_buffer:
            raise ConfigurationError("cannot rebase a non-empty send buffer")
        self.una = start_seq
        self.queued_end = start_seq


class IntervalSet:
    """Sorted, disjoint half-open ``[start, end)`` byte ranges.

    Both ends of SACK keep one: the receiver's out-of-order store (the
    ranges it reports as SACK blocks) and the sender's scoreboard (the
    blocks the peer reported).  ``ranges`` is public so the receiver's
    per-segment gap test is one attribute read.
    """

    __slots__ = ("ranges",)

    def __init__(self) -> None:
        self.ranges: List[Tuple[int, int]] = []

    def add(self, start: int, end: int) -> None:
        """Merge ``[start, end)`` into the set."""
        if end <= start:
            return
        merged: List[Tuple[int, int]] = []
        placed = False
        for s, e in self.ranges:
            if e < start or s > end:
                if not placed and s > end:
                    merged.append((start, end))
                    placed = True
                merged.append((s, e))
            else:
                start = min(start, s)
                end = max(end, e)
        if not placed:
            merged.append((start, end))
            merged.sort()
        self.ranges = merged

    def clear(self) -> None:
        self.ranges.clear()

    def covered_bytes(self) -> int:
        return sum(e - s for s, e in self.ranges)

    def blocks(self) -> List[Tuple[int, int]]:
        """A snapshot of the ranges."""
        return list(self.ranges)

    def __bool__(self) -> bool:
        return bool(self.ranges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.ranges})"


class ReassemblyBuffer:
    """Receiver-side out-of-order segment store.

    ``held`` keeps the bytes above ``rcv_nxt`` that arrived out of
    order; their count is not charged against the advertised window
    (see ``ReceiverHalf.rcv_wnd``).  ``add`` returns the number of
    bytes newly delivered in-order (i.e. how far ``rcv_nxt``
    advanced), which the receiver hands to the application.
    """

    __slots__ = ("rcv_nxt", "held")

    def __init__(self, rcv_nxt: int = 0):
        self.rcv_nxt = rcv_nxt
        self.held = IntervalSet()

    def add(self, seq: int, length: int) -> int:
        """Accept ``[seq, seq+length)``; return bytes newly in-order.

        Old (fully duplicate) data returns 0.  Partial overlap with the
        in-order prefix or with held ranges is trimmed.
        """
        if length < 0:
            raise ValueError("segment length must be non-negative")
        start, end = seq, seq + length
        if end <= self.rcv_nxt:
            return 0  # entirely old
        start = max(start, self.rcv_nxt)
        if start > self.rcv_nxt:
            # Out of order: hold it.
            self.held.add(start, end)
            return 0
        # In-order (possibly trimmed): advance rcv_nxt, then pull any
        # held ranges that become contiguous.
        old_nxt = self.rcv_nxt
        self.rcv_nxt = end
        ranges = self.held.ranges
        while ranges and ranges[0][0] <= self.rcv_nxt:
            _, held_end = ranges.pop(0)
            if held_end > self.rcv_nxt:
                self.rcv_nxt = held_end
        return self.rcv_nxt - old_nxt
