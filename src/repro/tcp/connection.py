"""The TCP connection endpoint.

One :class:`TCPConnection` is one endpoint (the equivalent of a BSD
socket + tcpcb).  It owns:

* the sender half: send buffer, ``snd_una``/``snd_nxt``/``snd_max``,
  the coarse (tick-granularity) retransmit machinery driven by the
  host's 500 ms slow timer, per-segment fine-grained timestamps (the
  clock readings Vegas' §3.1 mechanism relies on), and a pluggable
  :class:`~repro.core.base.CongestionControl` policy;
* the receiver half (:class:`~repro.tcp.receiver.ReceiverHalf`):
  cumulative/duplicate/delayed ACK generation;
* a small connection state machine (simplified three-way handshake and
  FIN exchange — no TIME_WAIT, no RST).

Everything observable about the connection is recorded through the
attached :class:`~repro.trace.tracer.ConnectionTracer`, which is what
the paper's graphing tools consume.
"""

from __future__ import annotations

import enum
import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ProtocolError
from repro.metrics.flowstats import FlowStats
from repro.net.addresses import FlowId
from repro.net.packet import Packet
from repro.sim import observers
from repro.tcp import constants as C
from repro.tcp.buffers import SendBuffer
from repro.tcp.receiver import AckAction, ReceiverHalf
from repro.tcp.rtt import CoarseRttEstimator, FineRttEstimator
from repro.tcp.sack import SackScoreboard
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_ECE,
    FLAG_FIN,
    FLAG_SYN,
    MAX_SACK_BLOCKS,
    SACK_BLOCK_BYTES,
    TCPSegment,
)
from repro.tcp.constants import HEADER_BYTES
from repro.trace.records import Kind
from repro.trace.tracer import NULL_TRACER, ConnectionTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import CongestionControl
    from repro.tcp.protocol import TCPProtocol

_heappush = heapq.heappush
_heappop = heapq.heappop


class State(enum.Enum):
    CLOSED = 0
    SYN_SENT = 1
    SYN_RCVD = 2
    ESTABLISHED = 3
    CLOSING = 4      # FIN exchange in progress (either direction)


class TCPConnection:
    """One endpoint of a TCP connection with pluggable congestion control.

    ``__slots__`` keeps a connection small for the thousands a tcplib
    background world opens; the groups follow ``__init__``.
    """

    __slots__ = (
        # Identity and plumbing.
        "protocol", "_host", "_send_packet", "_route", "sim", "flow",
        "mss", "nagle", "tracer", "stats", "state",
        # Sender half.
        "iss", "snd_una", "snd_nxt", "snd_max", "peer_wnd",
        "peer_wnd_seen", "dupacks", "sendbuf", "coarse_rtt", "fine_rtt",
        "t_rexmt", "rexmt_shift", "consecutive_timeouts", "_timing_seq",
        "_timing_ticks", "_persist_shift", "_persist_countdown",
        "_send_times", "_ends_heap", "_ambiguous", "_probe_ends",
        "fin_pending", "fin_sent", "fin_end", "fin_acked", "aborted",
        "_pace_event", "_pace_next_time", "sack_enabled", "sack_board",
        "ecn_enabled", "_ece_pending", "ecn_echoes_received",
        # Receiver half.
        "recv", "peer_fin",
        # Application callbacks.
        "on_established", "on_data", "on_send_space", "on_peer_fin",
        "on_closed",
        # Congestion control and instruments.
        "cc", "_paced", "_checker",
    )

    def __init__(self, protocol: "TCPProtocol", flow: FlowId,
                 cc: "CongestionControl",
                 mss: int = C.DEFAULT_MSS,
                 sndbuf: int = C.DEFAULT_SOCKBUF,
                 rcvbuf: int = C.DEFAULT_SOCKBUF,
                 tracer: Optional[ConnectionTracer] = None,
                 nagle: bool = True,
                 delayed_acks: bool = True,
                 sack: bool = False,
                 ecn: bool = False):
        self.protocol = protocol
        self._host = protocol.host
        self._send_packet = protocol.host.send_packet
        # Egress route cache for _transmit, resolved on first use:
        # routes are static once the topology is built, so the
        # per-segment forwarding lookup collapses to one bound call.
        self._route = None
        sim = protocol.sim
        self.sim = sim
        self.flow = flow
        self.mss = mss
        self.nagle = nagle
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = FlowStats()
        self.state = State.CLOSED

        # --- Sender half -------------------------------------------------
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        #: Highest end-sequence ever sent.
        self.snd_max = 0
        self.peer_wnd = 0
        self.peer_wnd_seen = False
        self.dupacks = 0
        self.sendbuf = SendBuffer(sndbuf, start_seq=1)
        self.coarse_rtt = CoarseRttEstimator()
        self.fine_rtt = FineRttEstimator()
        # Coarse retransmit timer: ticks until timeout (None when
        # unarmed) and its exponential-backoff shift.
        self.t_rexmt: Optional[int] = None
        self.rexmt_shift = 0
        #: Consecutive coarse timeouts without forward progress; the
        #: connection aborts when this exceeds MAX_REXMT_SHIFT, like
        #: BSD's dropwithreset after 12 fruitless retransmissions.
        self.consecutive_timeouts = 0
        # Coarse-timed sequence number (one at a time, Karn-guarded;
        # None when nothing is timed) and the slow ticks it has waited.
        self._timing_seq: Optional[int] = None
        self._timing_ticks = 0
        # Zero-window persist backoff.
        self._persist_shift = 0
        self._persist_countdown = 0
        # Fine per-segment clocks (§3.1): end_seq -> last transmit time.
        self._send_times: Dict[int, float] = {}
        # Min-heap over exactly _send_times's keys, so the smallest
        # outstanding end_seq is O(1) and purging on ACK is O(log n)
        # per removed entry instead of a full-dict scan.
        self._ends_heap: List[int] = []
        # End_seqs retransmitted (Karn), and persist-probe end_seqs,
        # which are excluded from CC measurements.
        self._ambiguous: set = set()
        self._probe_ends: set = set()
        self.fin_pending = False
        self.fin_sent = False
        self.fin_end: Optional[int] = None
        self.fin_acked = False
        self.aborted = False
        # Optional transmission pacing (used by the experimental
        # rate-controlled slow start of §3.3's future work).
        self._pace_event = None
        self._pace_next_time = 0.0
        # Selective acknowledgements (§6 extension): when enabled, this
        # endpoint *sends* SACK blocks for its out-of-order reassembly
        # queue and keeps a scoreboard of blocks the peer reports
        # (``None`` without SACK: every reader tests it first).
        self.sack_enabled = sack
        self.sack_board = SackScoreboard() if sack else None
        # Explicit congestion notification (RFC 3168, simplified): data
        # packets are sent ECN-capable; a congestion mark seen by the
        # receiver is echoed on its next ACKs until new data confirms
        # the sender reacted.
        self.ecn_enabled = ecn
        self._ece_pending = False
        self.ecn_echoes_received = 0

        # --- Receiver half ------------------------------------------------
        self.recv = ReceiverHalf(rcvbuf, delayed_acks=delayed_acks)
        self.peer_fin = False

        # --- Application callbacks ----------------------------------------
        self.on_established: Optional[Callable[["TCPConnection"], None]] = None
        self.on_data: Optional[Callable[["TCPConnection", int], None]] = None
        self.on_send_space: Optional[Callable[["TCPConnection"], None]] = None
        self.on_peer_fin: Optional[Callable[["TCPConnection"], None]] = None
        self.on_closed: Optional[Callable[["TCPConnection"], None]] = None

        self.cc = cc
        cc.attach(self)
        # A controller that never overrides pacing_rate can never pace
        # (the base method returns None unconditionally), so the
        # per-segment pacing probes in output() are skipped outright.
        from repro.core.base import CongestionControl as _base_cc
        self._paced = type(cc).pacing_rate is not _base_cc.pacing_rate

        # Instruments armed in repro.sim.observers register at
        # construction and poll this connection from the engine loop
        # (the watchdog through the liveness_* protocol below, the
        # gauges through cwnd/flight/mode), so unarmed runs pay nothing.
        # Only the invariant checker is also called inline, so it is
        # bound by name: every hook below is one `is not None` test.
        self._checker = observers.get("checker")
        for inst in observers.active():
            inst.register_connection(self)

    # ------------------------------------------------------------------
    # Convenience properties
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def is_closed(self) -> bool:
        return self.state is State.CLOSED and self.stats.close_time is not None

    def flight_size(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return self.snd_nxt - self.snd_una

    @property
    def send_window(self) -> int:
        """min(cwnd, peer advertised window), the paper's send window."""
        return min(self.cc.cwnd, self.peer_wnd)

    def unsent_bytes(self) -> int:
        return self.sendbuf.queued_end - self.snd_nxt

    # ------------------------------------------------------------------
    # Liveness protocol (consumed by repro.sim.watchdog)
    # ------------------------------------------------------------------
    def liveness_progress(self) -> int:
        """Monotone counter that moves whenever this endpoint advances.

        Covers both halves: cumulative ACKs received by the sender
        (``snd_una``) and in-order bytes accepted by the receiver
        (``rcv_nxt``).  Retransmissions that are never acknowledged do
        *not* move it — that is exactly the stall mode the watchdog
        exists to catch.
        """
        return self.snd_una + self.recv.rcv_nxt

    def has_unfinished_work(self) -> bool:
        """True while this endpoint still owes the network something.

        An aborted connection counts as unfinished forever: whatever it
        was carrying never completed, which is a liveness failure, not
        a finished transfer.
        """
        if self.aborted:
            return True
        if self.state is State.CLOSED:
            return False
        if self.snd_nxt > self.snd_una or self.unsent_bytes() > 0:
            return True
        return (self.fin_pending or self.fin_sent) and not self.fin_acked

    def liveness_snapshot(self) -> Dict[str, object]:
        """Diagnostic state for a :class:`~repro.errors.SimulationStalled`."""
        return {
            "flow": str(self.flow),
            "state": self.state.name,
            "snd_una": self.snd_una,
            "snd_nxt": self.snd_nxt,
            "snd_max": self.snd_max,
            "outstanding": self.flight_size(),
            "unsent": self.unsent_bytes(),
            "rcv_nxt": self.recv.rcv_nxt,
            "rexmt_timer_ticks": self.t_rexmt,
            "rexmt_shift": self.rexmt_shift,
            "consecutive_timeouts": self.consecutive_timeouts,
            "coarse_timeouts": self.stats.coarse_timeouts,
            "aborted": self.aborted,
            "unfinished": self.has_unfinished_work(),
        }

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Send a SYN (active open)."""
        if self.state is not State.CLOSED or self.stats.open_time is not None:
            raise ProtocolError("connection already opened")
        self.stats.open_time = self.sim.now
        self.state = State.SYN_SENT
        self.snd_una = self.iss
        self.snd_nxt = self.iss + 1
        self.snd_max = self.iss + 1
        self._trace(Kind.STATE, self.state.value)
        self._send_syn()

    def open_passive(self, syn: TCPSegment) -> None:
        """Respond to an incoming SYN (passive open)."""
        if self.state is not State.CLOSED:
            raise ProtocolError("connection already opened")
        self.stats.open_time = self.sim.now
        self.recv.init_sequence(syn.seq + 1)
        self.peer_wnd = syn.wnd
        self.peer_wnd_seen = True
        self.state = State.SYN_RCVD
        self.snd_una = self.iss
        self.snd_nxt = self.iss + 1
        self.snd_max = self.iss + 1
        self._trace(Kind.STATE, self.state.value)
        self._send_syn(ack=True)

    def _send_syn(self, ack: bool = False) -> None:
        flags = FLAG_SYN | (FLAG_ACK if ack else 0)
        seg = TCPSegment(self.flow.local_port, self.flow.remote_port,
                         seq=self.iss, length=0,
                         ack=self.recv.rcv_nxt if ack else 0,
                         flags=flags, wnd=self.recv.rcv_wnd)
        self._note_send_time(self.iss + 1, self.sim.now)
        if self._timing_seq is None:
            self._timing_seq = self.iss
            self._timing_ticks = 1
        if self._checker is not None:
            self._checker.note_sent(self, self.iss, self.iss + 1,
                                    is_data=False)
        self._arm_rexmt()
        self._transmit(seg)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def app_send(self, nbytes: int) -> int:
        """Queue *nbytes* of application data; returns the accepted count."""
        if self.fin_pending or self.fin_sent:
            raise ProtocolError("cannot send after close()")
        accepted = self.sendbuf.write(nbytes)
        if accepted:
            self.stats.app_bytes_queued += accepted
            self._trace(Kind.APP_WRITE, accepted)
        state = self.state
        if state is State.ESTABLISHED or state is State.CLOSING:
            self.output()
        return accepted

    def close(self) -> None:
        """Half-close: send FIN once all queued data has been sent."""
        if self.fin_pending or self.fin_sent:
            return
        self.fin_pending = True
        state = self.state
        if state is State.ESTABLISHED or state is State.CLOSING:
            self.output()

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------
    def output(self) -> None:
        """Send as much queued data as the windows allow (BSD tcp_output)."""
        state = self.state
        if state is not State.ESTABLISHED and state is not State.CLOSING:
            return
        # Hot loop: the window terms are recomputed each iteration (a
        # sent segment moves snd_nxt) inline rather than via helpers.
        mss = self.mss
        sendbuf = self.sendbuf
        paced = self._paced
        cc = self.cc
        while True:
            snd_nxt = self.snd_nxt
            flight = snd_nxt - self.snd_una
            window = cc.cwnd
            peer_wnd = self.peer_wnd
            if peer_wnd < window:
                window = peer_wnd
            usable = window - flight
            unsent = sendbuf.queued_end - snd_nxt
            if unsent > 0 and usable > 0:
                length = min(mss, unsent, usable)
                if length < mss and self.nagle and flight > 0:
                    # Nagle / silly-window avoidance: hold sub-MSS
                    # segments while data is outstanding.
                    break
                if paced:
                    if self._pacing_blocked():
                        break
                    self._send_data_segment(snd_nxt, length)
                    self._pacing_charge(length)
                else:
                    self._send_data_segment(snd_nxt, length)
                continue
            if (self.fin_pending and not self.fin_sent and unsent == 0
                    and snd_nxt == sendbuf.queued_end):
                self._send_fin()
            break

    def _sack_blocks(self) -> tuple:
        if not self.sack_enabled:
            return ()
        return tuple(self.recv.reasm.intervals()[:MAX_SACK_BLOCKS])

    def _send_data_segment(self, seq: int, length: int,
                           probe: bool = False) -> None:
        now = self.sim.now
        stats = self.stats
        recv = self.recv
        tracer = self.tracer
        tracing = tracer.enabled
        record = tracer.record
        end_seq = seq + length
        is_retx = end_seq <= self.snd_max
        seg = TCPSegment(self.flow.local_port, self.flow.remote_port,
                         seq, length, recv.rcv_nxt, FLAG_ACK, recv.rcv_wnd,
                         self._sack_blocks() if self.sack_enabled else ())
        recv.delack_pending = False  # inlined recv.ack_sent()
        send_times = self._send_times
        if is_retx:
            stats.retransmitted_bytes += length
            stats.retransmit_segments += 1
            if tracing:
                record(now, Kind.RETX, seq, length)
            if end_seq in send_times:
                self._ambiguous.add(end_seq)
            # Karn: a retransmission covering the timed segment
            # invalidates the coarse measurement.
            tseq = self._timing_seq
            if tseq is not None and seq <= tseq < end_seq:
                self._timing_seq = None
        else:
            if tracing:
                record(now, Kind.SEND, seq, length)
            if self._timing_seq is None and not probe:
                self._timing_seq = seq
                self._timing_ticks = 1
        # Inlined _note_send_time: retransmissions refresh the clock of
        # an end_seq that is already indexed; only genuinely new keys
        # enter the heap, so heap and dict hold exactly the same keys.
        if end_seq not in send_times:
            _heappush(self._ends_heap, end_seq)
        send_times[end_seq] = now
        if probe:
            # A persist probe is a forced 1-byte send outside the
            # window discipline.  Its RTT measures a starved path, so
            # it must never become a Vegas distinguished segment or
            # feed BaseRTT — mark it and keep congestion control blind.
            self._probe_ends.add(end_seq)
        stats.bytes_sent_total += length
        stats.segments_sent += 1
        if stats.first_send_time is None:
            stats.first_send_time = now
        if end_seq > self.snd_nxt:
            self.snd_nxt = end_seq
        if end_seq > self.snd_max:
            self.snd_max = end_seq
        if self._checker is not None:
            self._checker.note_sent(self, seq, end_seq)
        if self.t_rexmt is None:  # _arm_rexmt() inlined
            cr = self.coarse_rtt
            self.t_rexmt = min(cr.max_rto_ticks,
                               cr.rto_ticks << self.rexmt_shift)
        if not probe:
            self.cc.on_segment_sent(seq, length, end_seq, is_retx, now)
        if tracing:
            record(now, Kind.FLIGHT, self.snd_nxt - self.snd_una)
        self._transmit(seg)

    def _send_fin(self) -> None:
        seq = self.sendbuf.queued_end
        seg = TCPSegment(self.flow.local_port, self.flow.remote_port,
                         seq=seq, length=0, ack=self.recv.rcv_nxt,
                         flags=FLAG_ACK | FLAG_FIN, wnd=self.recv.rcv_wnd)
        self.recv.ack_sent()
        self.fin_sent = True
        self.fin_end = seq + 1
        self._note_send_time(self.fin_end, self.sim.now)
        if self.fin_end > self.snd_nxt:
            self.snd_nxt = self.fin_end
        if self.fin_end > self.snd_max:
            self.snd_max = self.fin_end
        if self._checker is not None:
            self._checker.note_sent(self, seq, self.fin_end, is_data=False)
        self.state = State.CLOSING
        self._trace(Kind.FIN, seq)
        self._trace(Kind.STATE, self.state.value)
        self._arm_rexmt()
        self._transmit(seg)

    def retransmit_first_unacked(self, reason: str = "fast") -> int:
        """Resend the segment at ``snd_una`` (fast/fine retransmission).

        Returns the retransmitted segment's starting sequence number.
        Called by congestion-control policies; the window decision is
        theirs, the mechanics are here.
        """
        snd_una = self.snd_una
        data_end = self.sendbuf.queued_end
        if snd_una < data_end:
            length = min(self.mss, data_end - snd_una,
                         max(self.snd_max - snd_una, 0))
            if length <= 0:
                return snd_una
            if reason.startswith("fine"):
                self.stats.fine_retransmits += 1
                self._trace(Kind.FINE_RETX, snd_una,
                            1 if reason == "fine-dupack" else 2)
            else:
                self.stats.fast_retransmits += 1
            self._send_data_segment(snd_una, length)
            return snd_una
        if self.fin_sent and not self.fin_acked:
            self._send_fin_again()
        return snd_una

    def retransmit_hole(self, seq: int, length: int,
                        reason: str = "sack") -> None:
        """Resend the un-SACKed chunk at *seq* (SACK-driven recovery).

        Unlike :meth:`retransmit_first_unacked`, the chunk may sit
        anywhere between ``snd_una`` and ``snd_max``.
        """
        length = min(length, self.mss,
                     max(0, self.sendbuf.queued_end - seq))
        if length <= 0 or seq < self.snd_una:
            return
        if reason == "sack":
            self.stats.fast_retransmits += 1
        self._send_data_segment(seq, length)

    def _send_fin_again(self) -> None:
        seq = self.sendbuf.queued_end
        seg = TCPSegment(self.flow.local_port, self.flow.remote_port,
                         seq=seq, length=0, ack=self.recv.rcv_nxt,
                         flags=FLAG_ACK | FLAG_FIN, wnd=self.recv.rcv_wnd)
        self.recv.ack_sent()
        if self.fin_end is not None:
            self._note_send_time(self.fin_end, self.sim.now)
            self._ambiguous.add(self.fin_end)
        self._arm_rexmt()
        self._transmit(seg)

    def send_ack(self) -> None:
        """Send a pure ACK now (with SACK blocks when enabled)."""
        recv = self.recv
        seg = TCPSegment(self.flow.local_port, self.flow.remote_port,
                         self.snd_nxt, 0, recv.rcv_nxt, FLAG_ACK,
                         recv.rcv_wnd,
                         self._sack_blocks() if self.sack_enabled else ())
        recv.delack_pending = False  # inlined recv.ack_sent()
        self._transmit(seg)
        # One echo (at least) per congestion mark.
        self._ece_pending = False

    def _transmit(self, seg: TCPSegment) -> None:
        if self.ecn_enabled and self._ece_pending and seg.flags & FLAG_ACK:
            seg.flags |= FLAG_ECE
        packet = Packet(self.flow.local_addr, self.flow.remote_addr,
                        seg,
                        # seg.wire_size inlined (one call per segment).
                        HEADER_BYTES + seg.length
                        + SACK_BLOCK_BYTES * len(seg.sack),
                        created_at=self.sim.now,
                        ecn_capable=self.ecn_enabled and seg.length > 0)
        host = self._host
        route = self._route
        if route is None:
            route = host.forwarding.get(self.flow.remote_addr)
            if route is None or self.flow.remote_addr == host.name:
                # No route yet (or loopback): the general path raises
                # or loops back as appropriate.
                self._send_packet(packet)
                return
            self._route = route
        host.packets_sent += 1
        host.bytes_sent += packet.size
        route[2](packet, route[1])

    # ------------------------------------------------------------------
    # Input path
    # ------------------------------------------------------------------
    def handle_segment(self, seg: TCPSegment, ecn_marked: bool = False) -> None:
        """Process an inbound segment addressed to this connection.

        ``ecn_marked`` reports that the carrying packet received a
        congestion mark in the network (set by the demultiplexer).
        """
        # Flag bits are tested directly (seg.flags & FLAG_*) on this
        # path: the syn/has_ack/fin properties cost a descriptor call
        # per test, which adds up at one segment per data event.
        flags = seg.flags
        if self.ecn_enabled and ecn_marked:
            self._ece_pending = True
        state = self.state
        if state is State.SYN_SENT:
            self._handle_syn_sent(seg)
            if self._checker is not None:
                self._checker.on_segment_processed(self)
            return
        if state is State.SYN_RCVD:
            if flags & FLAG_ACK and seg.ack >= self.iss + 1:
                self._become_established(seg)
                # Fall through: the segment may carry data too.
            elif flags & FLAG_SYN:
                # Our SYN-ACK was lost; resend it.
                self._send_syn(ack=True)
                return
        elif state is State.CLOSED:
            # Residual segments after close (e.g. a retransmitted FIN):
            # re-ACK so the peer can finish, then ignore.
            if seg.length > 0 or flags & FLAG_FIN:
                self.send_ack()
            return

        if flags & FLAG_ACK:
            self._process_ack(seg)

        delivered, action = self.recv.process_data(seg)
        if delivered and self.on_data is not None:
            self.on_data(self, delivered)
        self.stats.bytes_received += delivered

        fin_action = flags & FLAG_FIN and self._process_fin(seg)
        if fin_action or action is AckAction.NOW:
            self.send_ack()

        if self.fin_acked and self.peer_fin:  # _maybe_done precondition
            self._maybe_done()
        if self._checker is not None:
            self._checker.on_segment_processed(self)

    def _handle_syn_sent(self, seg: TCPSegment) -> None:
        if not (seg.syn and seg.has_ack and seg.ack == self.iss + 1):
            return  # simultaneous open unsupported; ignore
        self.recv.init_sequence(seg.seq + 1)
        self._note_ack_progress(seg.ack)
        self._become_established(seg)
        self.send_ack()
        self.output()

    def _become_established(self, seg: TCPSegment) -> None:
        self.state = State.ESTABLISHED
        self.stats.established_time = self.sim.now
        self.peer_wnd = seg.wnd
        self.peer_wnd_seen = True
        if seg.has_ack and seg.ack == self.iss + 1:
            self._note_ack_progress(seg.ack)
        self._trace(Kind.ESTABLISHED)
        self._trace(Kind.STATE, self.state.value)
        self.cc.on_established(self.sim.now)
        if self.on_established is not None:
            self.on_established(self)
        self.output()

    def _note_ack_progress(self, ack: int) -> None:
        """Minimal ack bookkeeping used during the handshake."""
        if ack <= self.snd_una or ack > self.snd_max:
            return
        tseq = self._timing_seq
        if tseq is not None and tseq < ack:
            self.coarse_rtt.update(self._timing_ticks)
            self._timing_seq = None
        sample = self._fine_sample_for(ack)
        if sample is not None:
            # A SYN is 40 bytes on the wire; its RTT under-represents
            # the serialization a full data segment pays, so it feeds
            # the smoothed estimate but not BaseRTT.
            self.fine_rtt.update(sample, update_base=False)
            self.stats.note_rtt(sample)
        self._purge_send_times(ack)
        self.snd_una = ack
        if self._checker is not None:
            self._checker.on_ack(self, ack)
        self.rexmt_shift = 0
        self.consecutive_timeouts = 0
        if ack >= self.snd_max:
            self.t_rexmt = None
        else:
            self._arm_rexmt(force=True)

    def _process_ack(self, seg: TCPSegment) -> None:
        ack = seg.ack
        if ack > self.snd_max:
            return  # acks data never sent; ignore
        flags = seg.flags
        if self.ecn_enabled and flags & FLAG_ECE:
            self.ecn_echoes_received += 1
            self.cc.on_ecn_echo(self.sim.now)
        if self.sack_enabled and seg.sack:
            snd_max = self.snd_max
            for start, end in seg.sack:
                self.sack_board.add(start, min(end, snd_max))
        seg_wnd = seg.wnd
        snd_una = self.snd_una
        if ack > snd_una:
            self.peer_wnd = seg_wnd
            self._handle_new_ack(ack, seg)
        elif (ack == snd_una and seg.length == 0
              and not flags & (FLAG_SYN | FLAG_FIN)
              and self.snd_nxt > snd_una
              and seg_wnd == self.peer_wnd):
            dupacks = self.dupacks + 1
            self.dupacks = dupacks
            self.stats.dup_acks_received += 1
            self._trace(Kind.DUPACK_RX, ack, dupacks)
            self.cc.on_dup_ack(dupacks, self.sim.now)
            self.output()
        else:
            self.peer_wnd = seg_wnd

    def _handle_new_ack(self, ack: int, seg: TCPSegment) -> None:
        now = self.sim.now
        stats = self.stats
        tracer = self.tracer
        # record() is a no-op on a disabled tracer, so guarding the
        # call sites (and their argument computation) is bit-identical
        # and saves four calls per ACK on untraced connections.
        tracing = tracer.enabled
        record = tracer.record
        acked = ack - self.snd_una
        stats.acks_received += 1
        if tracing:
            record(now, Kind.ACK_RX, ack)
        # Coarse RTT sample (one timed segment at a time, Karn-guarded).
        tseq = self._timing_seq
        if tseq is not None and tseq < ack:
            self.coarse_rtt.update(self._timing_ticks)
            self._timing_seq = None
        # Fine-grained RTT sample from per-segment clocks.  FIN-only
        # segments (40 bytes on the wire) are excluded from BaseRTT for
        # the same reason SYNs are: they pay less serialization than a
        # data segment and would read as an impossibly good path.
        send_times = self._send_times
        ambiguous = self._ambiguous
        probe_ends = self._probe_ends
        ts = send_times.get(ack)
        sample = None
        if ts is not None and ack not in ambiguous:
            sample = now - ts
        if sample is not None:
            fin_end = self.fin_end
            is_fin_sample = (fin_end is not None and ack == fin_end
                             and self.sendbuf.queued_end < ack)
            # A persist probe's RTT is measured through a zero-window
            # stall; like SYN/FIN samples it feeds the smoothed
            # estimator but must not lower BaseRTT, and congestion
            # control never sees it.
            is_probe_sample = ack in probe_ends
            self.fine_rtt.update(
                sample, update_base=not (is_fin_sample or is_probe_sample))
            stats.note_rtt(sample)
            if tracing:
                record(now, Kind.RTT_SAMPLE, sample * 1e6)
            if is_fin_sample or is_probe_sample:
                sample = None
        # Inlined _purge_send_times: the heap's top is the smallest
        # outstanding end_seq, so the cumulative ACK peels covered
        # entries in O(log n) each.
        ends_heap = self._ends_heap
        while ends_heap and ends_heap[0] <= ack:
            k = _heappop(ends_heap)
            del send_times[k]
            ambiguous.discard(k)
            probe_ends.discard(k)
        self.snd_una = ack
        if self.snd_nxt < ack:
            # After a timeout rolled snd_nxt back, an ACK for the
            # original (pre-rollback) transmissions can pass it; pull
            # snd_nxt forward so the flight never goes negative (the
            # same guard 4.3 BSD applies after ACK processing).
            self.snd_nxt = ack
        if self._checker is not None:
            self._checker.on_ack(self, ack)
        if self.sack_enabled:
            # Only _process_ack with sack_enabled ever populates the
            # board, so the advance is a no-op for everyone else.
            self.sack_board.advance_to(ack)
        freed = self.sendbuf.ack_to(ack)
        if freed:
            stats.app_bytes_acked += freed
            stats.last_ack_time = now
        fin_end = self.fin_end
        if self.fin_sent and fin_end is not None and ack >= fin_end:
            self.fin_acked = True
            stats.last_ack_time = now
        self.dupacks = 0
        self.rexmt_shift = 0
        self.consecutive_timeouts = 0
        self.cc.on_new_ack(acked, now, sample)
        if ack >= self.snd_max:
            self.t_rexmt = None
        else:
            # _arm_rexmt(force=True) inlined; rexmt_shift was just
            # zeroed, so the backed-off RTO is the clamped base RTO.
            cr = self.coarse_rtt
            rto = cr.rto_ticks
            cap = cr.max_rto_ticks
            self.t_rexmt = rto if rto < cap else cap
        if tracing:
            record(now, Kind.SND_WND,
                   min(self.sendbuf.capacity, self.peer_wnd))
            record(now, Kind.FLIGHT, self.snd_nxt - self.snd_una)
        self.output()
        if freed and self.on_send_space is not None:
            self.on_send_space(self)

    def _process_fin(self, seg: TCPSegment) -> bool:
        """Handle an in-order FIN; returns True if it was consumed."""
        if not seg.fin or self.peer_fin:
            return False
        fin_seq = seg.seq + seg.length
        if fin_seq != self.recv.rcv_nxt:
            return False  # out of order; peer will retransmit
        self.recv.reasm.rcv_nxt += 1
        self.peer_fin = True
        if self.on_peer_fin is not None:
            self.on_peer_fin(self)
        else:
            self.close()
        return True

    def _maybe_done(self) -> None:
        if (self.fin_acked and self.peer_fin
                and self.state is not State.CLOSED):
            self.state = State.CLOSED
            self.t_rexmt = None
            self.stats.close_time = self.sim.now
            self._trace(Kind.STATE, self.state.value)
            self.protocol.connection_closed(self)
            if self.on_closed is not None:
                self.on_closed(self)

    # ------------------------------------------------------------------
    # Fine-grained clock bookkeeping (§3.1)
    # ------------------------------------------------------------------
    def _fine_sample_for(self, ack: int) -> Optional[float]:
        """Exact RTT for the segment whose end is *ack*, if unambiguous."""
        ts = self._send_times.get(ack)
        if ts is None or ack in self._ambiguous:
            return None
        return self.sim.now - ts

    def _note_send_time(self, end_seq: int, now: float) -> None:
        """Record a transmit clock, keeping the end-seq heap in sync.

        Retransmissions refresh the clock of an end_seq that is already
        indexed; only genuinely new keys enter the heap, so heap and
        dict always hold exactly the same key set.
        """
        send_times = self._send_times
        if end_seq not in send_times:
            _heappush(self._ends_heap, end_seq)
        send_times[end_seq] = now

    def _purge_send_times(self, ack: int) -> None:
        # The heap's top is the smallest outstanding end_seq, so the
        # cumulative ACK peels covered entries in O(log n) each — the
        # seed scanned the whole dict per ACK, O(window) on every ack.
        heap = self._ends_heap
        send_times = self._send_times
        ambiguous = self._ambiguous
        probe_ends = self._probe_ends
        while heap and heap[0] <= ack:
            k = _heappop(heap)
            del send_times[k]
            ambiguous.discard(k)
            probe_ends.discard(k)

    def first_unacked_send_time(self) -> Optional[float]:
        """Latest transmit time of the segment containing ``snd_una``.

        This is the clock Vegas reads when a duplicate ACK arrives: if
        ``now - send_time > fine RTO`` the segment is declared lost
        without waiting for three duplicates.
        """
        # snd_una only advances through the purge paths, so the heap's
        # top is normally already > snd_una; the lazy pop is a
        # defensive sweep that keeps the invariant even if a caller
        # moved snd_una directly.
        heap = self._ends_heap
        send_times = self._send_times
        una = self.snd_una
        while heap and heap[0] <= una:
            k = _heappop(heap)
            send_times.pop(k, None)
            self._ambiguous.discard(k)
            self._probe_ends.discard(k)
        if not heap:
            return None
        return send_times[heap[0]]

    # ------------------------------------------------------------------
    # Timers (driven by the host protocol's periodic timers)
    # ------------------------------------------------------------------
    def _arm_rexmt(self, force: bool = False) -> None:
        if force or self.t_rexmt is None:
            self.t_rexmt = self.coarse_rtt.backed_off_rto(self.rexmt_shift)

    def _coarse_timeout(self) -> None:
        self.stats.coarse_timeouts += 1
        self._trace(Kind.COARSE_TIMEOUT, self.snd_una)
        timeouts = self.consecutive_timeouts + 1
        self.consecutive_timeouts = timeouts
        if timeouts > C.MAX_REXMT_SHIFT:
            self._abort()
            return
        self.rexmt_shift = min(self.rexmt_shift + 1, C.MAX_REXMT_SHIFT)
        self._timing_seq = None  # Karn
        self.dupacks = 0
        self.cc.on_coarse_timeout(self.sim.now)
        self._arm_rexmt(force=True)
        state = self.state
        if state is State.SYN_SENT or state is State.SYN_RCVD:
            self._send_syn(ack=(state is State.SYN_RCVD))
            return
        # Go back to the first unacknowledged byte; with cwnd reset to
        # one segment, output() resends exactly one segment.
        snd_una = self.snd_una
        self.snd_nxt = snd_una
        if snd_una >= self.sendbuf.queued_end and self.fin_sent:
            self._send_fin_again()
        else:
            self.output()

    def _pacing_blocked(self) -> bool:
        """True when pacing defers transmission; reschedules output."""
        rate = self.cc.pacing_rate()
        if rate is None or self.sim.now >= self._pace_next_time:
            return False
        if self._pace_event is None:
            self._pace_event = self.sim.schedule(
                self._pace_next_time - self.sim.now, self._pace_fire)
        return True

    def _pace_fire(self) -> None:
        # The wake-up fired: `_pacing_blocked` arms the next one only
        # when no handle is held.
        self._pace_event = None
        self.output()

    def _pacing_charge(self, length: int) -> None:
        """Advance the pacing clock after sending *length* bytes."""
        rate = self.cc.pacing_rate()
        if rate is None or rate <= 0:
            return
        base = max(self._pace_next_time, self.sim.now)
        self._pace_next_time = base + length / rate

    def _abort(self) -> None:
        """Give up after too many fruitless retransmissions (BSD-style)."""
        self.aborted = True
        self.state = State.CLOSED
        self.t_rexmt = None
        self.stats.close_time = self.sim.now
        self._trace(Kind.STATE, self.state.value)
        self.protocol.connection_closed(self)
        if self.on_closed is not None:
            self.on_closed(self)

    def _persist_fire(self) -> None:
        """Send one zero-window probe and back its interval off.

        Real BSD backs the persist interval off exponentially
        (TCPTV_PERSMIN up to TCPTV_PERSMAX); here the countdown the
        protocol's slow-timer scan runs down doubles per probe, capped
        at :data:`~repro.tcp.constants.MAX_PERSIST_TICKS`.
        """
        seq = self.snd_nxt
        self.stats.persist_probes += 1
        self._trace(Kind.PROBE, seq, self._persist_shift)
        self._send_data_segment(seq, 1, probe=True)
        self._persist_countdown = min(1 << self._persist_shift,
                                      C.MAX_PERSIST_TICKS)
        self._persist_shift = min(self._persist_shift + 1, C.MAX_REXMT_SHIFT)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def _trace(self, kind: Kind, a: float = 0.0, b: float = 0.0) -> None:
        self.tracer.record(self.sim.now, kind, a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TCPConnection({self.flow}, {self.state.name}, "
                f"una={self.snd_una}, nxt={self.snd_nxt}, "
                f"cwnd={self.cc.cwnd})")
