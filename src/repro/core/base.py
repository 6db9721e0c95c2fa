"""Congestion-control plug-in interface.

All of the paper's sender-side policies — Reno, Tahoe, Vegas, and the
§3.2 prior schemes (DUAL, CARD, Tri-S) — implement this interface.
The TCP sender machinery (window arithmetic, timers, buffers) is
shared; what differs between protocols is *policy*: how the window
grows, when a loss is declared, and how the window reacts to it.
Those decisions live in the CongestionControl subclass.

The controller is given a reference to its connection at attach time
and may use the connection's documented sender-side services:

* ``conn.mss``, ``conn.snd_una``, ``conn.snd_nxt``, ``conn.flight_size()``
* ``conn.peer_wnd`` — the last advertised window
* ``conn.retransmit_first_unacked(reason)`` — resend the segment at
  ``snd_una``; returns its first sequence number
* ``conn.first_unacked_send_time()`` — latest transmission time of the
  first unacked segment (``None`` if nothing is outstanding)
* ``conn.sack_board`` — the peer's SACK scoreboard (``None`` unless
  the SYN negotiated SACK, see ``uses_sack`` below), and
  ``conn.retransmit_hole(seq, length)`` — resend one un-SACKed chunk
* ``conn.fine_rtt`` — the fine-grained estimator (per-segment clocks)
* ``conn.stats`` — the connection's :class:`FlowStats`
* ``conn.tracer`` — trace sink
* ``conn.now`` — current simulated time

Nothing else: a controller keeps its own state (``cwnd``,
``ssthresh`` and whatever its policy needs) as attributes of its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim import observers
from repro.tcp import constants as C
from repro.trace.records import Kind

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.connection import TCPConnection


class CongestionControl:
    """Base class: fixed window, no reaction to loss.

    Useful on its own as a "dumb" constant-window transport for tests
    and for generating deterministic cross-traffic; all real protocols
    override the event hooks.
    """

    name = "fixed"
    #: The active opener's SYN offers SACK (RFC 2018) only for a
    #: controller that repairs holes from the peer's blocks.
    uses_sack = False
    #: Only a controller whose :meth:`pacing_rate` can return a rate
    #: sets this; the sender skips its per-segment pacing probes
    #: otherwise.
    paces = False

    def __init__(self, initial_cwnd_segments: int = 1):
        self.conn: Optional["TCPConnection"] = None
        self._initial_cwnd_segments = initial_cwnd_segments
        #: Congestion window, bytes (always an ``int``).
        self.cwnd = 0
        #: Slow-start threshold, bytes (always an ``int``).
        self.ssthresh = 0
        self._checker = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, conn: "TCPConnection") -> None:
        """Bind to *conn*; called once, before the handshake."""
        self.conn = conn
        # The same lookup the connection makes in its constructor, so a
        # window move reaches the armed checker through one test.
        self._checker = observers.get("checker")
        self.cwnd = int(self._initial_cwnd_segments * conn.mss)
        self.ssthresh = C.MAX_CWND

    def on_established(self, now: float) -> None:
        """Handshake completed."""

    # ------------------------------------------------------------------
    # Event hooks (all no-ops in the fixed-window base)
    # ------------------------------------------------------------------
    def on_segment_sent(self, seq: int, length: int, end_seq: int,
                        is_retransmit: bool, now: float) -> None:
        """A data segment left the sender."""

    def on_new_ack(self, acked_bytes: int, now: float,
                   rtt_sample: Optional[float]) -> None:
        """A new cumulative ACK advanced ``snd_una``.

        ``rtt_sample`` is the fine-grained RTT for the newly acked
        segment, or ``None`` when the measurement was ambiguous
        (segment retransmitted — Karn's rule).
        """

    def on_dup_ack(self, count: int, now: float) -> None:
        """A duplicate ACK arrived; *count* is the consecutive total."""

    def on_coarse_timeout(self, now: float) -> None:
        """The coarse-grained retransmit timer expired."""

    def on_ecn_echo(self, now: float) -> None:
        """The peer echoed a congestion mark (ECN, RFC 3168).

        Default: ignore.  Loss-based controllers treat this as a
        congestion signal equivalent to a loss, minus the retransmission.
        """

    def pacing_rate(self) -> Optional[float]:
        """Bytes/second to pace transmissions at, or ``None`` (no pacing).

        Consulted by the sender before each data segment; the default
        ack-clocked behaviour corresponds to ``None``.
        """
        return None

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _set_cwnd(self, value: int, now: float) -> None:
        value = int(value)
        old = self.cwnd
        if value != old:
            self.cwnd = value
            if self.conn is not None:
                self.conn.tracer.record(now, Kind.CWND, value)
            if self._checker is not None:
                self._checker.on_cwnd(self, old, value, now)

    def _set_ssthresh(self, value: int, now: float) -> None:
        value = int(value)
        old = self.ssthresh
        if value != old:
            self.ssthresh = value
            if self.conn is not None:
                self.conn.tracer.record(now, Kind.SSTHRESH, value)
            if self._checker is not None:
                self._checker.on_ssthresh(self, old, value, now)

    def half_window(self) -> int:
        """BSD's loss threshold: half of min(cwnd, peer window), floored
        at two segments and rounded down to a segment multiple."""
        assert self.conn is not None
        mss = self.conn.mss
        window = min(self.cwnd, max(self.conn.peer_wnd, mss))
        half_segments = max(2, (window // mss) // 2)
        return half_segments * mss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(cwnd={self.cwnd}, ssthresh={self.ssthresh})"
