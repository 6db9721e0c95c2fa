"""Receiver-side segment processing and ACK policy.

Implements the BSD receiver behaviour the paper's senders react to:

* cumulative ACKs;
* **duplicate ACKs sent immediately** whenever an out-of-order segment
  arrives ("Reno sends a duplicate ACK whenever it receives new data
  that it cannot acknowledge", §3.1) — these drive fast retransmit;
* **delayed ACKs** for in-order data: acknowledge every second
  full segment immediately, otherwise wait for the 200 ms fast timer;
* an immediate ACK when a retransmission fills a hole (so the sender
  learns promptly that recovery succeeded);
* an advertised window that shrinks with buffered out-of-order data.
"""

from __future__ import annotations

import enum

from repro.tcp.buffers import ReassemblyBuffer
from repro.tcp.segment import TCPSegment


class AckAction(enum.Enum):
    """What the connection should do about acknowledging a segment."""

    NONE = "none"          # nothing to acknowledge
    DELAY = "delay"        # set the delayed-ACK flag
    NOW = "now"            # send an ACK immediately


class ReceiverHalf:
    """Inbound data state for one connection endpoint.

    ``__slots__`` keeps per-flow receiver memory flat for
    many-thousand-conversation runs.
    """

    __slots__ = ("rcvbuf", "delayed_acks", "reasm", "bytes_delivered",
                 "segments_received", "duplicate_segments",
                 "out_of_order_segments", "delack_pending")

    def __init__(self, rcvbuf: int, delayed_acks: bool = True):
        self.rcvbuf = rcvbuf
        self.delayed_acks = delayed_acks
        self.reasm = ReassemblyBuffer()
        self.bytes_delivered = 0
        self.segments_received = 0
        self.duplicate_segments = 0
        self.out_of_order_segments = 0
        #: True while an ACK for in-order data is being delayed.
        self.delack_pending = False

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def rcv_nxt(self) -> int:
        return self.reasm.rcv_nxt

    @property
    def rcv_wnd(self) -> int:
        """Advertised window.

        In-order data is consumed by the application immediately (the
        paper's transfer applications drain as fast as data arrives)
        and, as in 4.3 BSD, the out-of-order reassembly queue is *not*
        charged against the socket buffer — so the advertised window
        stays at the buffer size.  Keeping it constant also matters
        behaviourally: BSD's duplicate-ACK test requires an unchanged
        window, so a window that shrank with every out-of-order
        arrival would suppress fast retransmit entirely.
        """
        return self.rcvbuf

    def init_sequence(self, irs: int) -> None:
        """Set the initial receive sequence (one past the peer's SYN)."""
        self.reasm.rcv_nxt = irs

    # ------------------------------------------------------------------
    # Segment processing
    # ------------------------------------------------------------------
    def process_data(self, seg: TCPSegment) -> "tuple[int, AckAction]":
        """Handle the data portion of *seg*.

        Returns ``(delivered_bytes, ack_action)`` where
        ``delivered_bytes`` is how much new in-order data became
        available to the application.
        """
        length = seg.length
        if length == 0:
            return 0, AckAction.NONE
        self.segments_received += 1

        reasm = self.reasm
        seq = seg.seq
        rcv_nxt = reasm.rcv_nxt
        had_gaps = bool(reasm._intervals)
        if seq + length <= rcv_nxt:
            # Entirely old data: the ACK that covered it must have been
            # lost.  Re-ACK immediately.
            self.duplicate_segments += 1
            return 0, AckAction.NOW
        if seq > rcv_nxt:
            # A hole precedes this segment: buffer it and emit an
            # immediate duplicate ACK.
            self.out_of_order_segments += 1
            reasm.add(seq, length)
            return 0, AckAction.NOW

        delivered = reasm.add(seq, length)
        self.bytes_delivered += delivered
        if had_gaps or reasm._intervals:
            # Filling (or partially filling) a hole: ACK right away so
            # the sender exits recovery promptly.
            return delivered, AckAction.NOW
        if not self.delayed_acks:
            return delivered, AckAction.NOW
        if self.delack_pending:
            # Second unacknowledged full segment: ACK now (BSD's
            # every-other-segment rule).
            return delivered, AckAction.NOW
        self.delack_pending = True
        return delivered, AckAction.DELAY

    def ack_sent(self) -> None:
        """Note that an ACK (pure or piggybacked) has gone out."""
        self.delack_pending = False
