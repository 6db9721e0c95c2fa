"""Per-host TCP protocol instance.

One :class:`TCPProtocol` sits on each host.  It demultiplexes inbound
packets to connections, accepts new connections for listening ports,
allocates ephemeral ports, and drives every connection's coarse
machinery from the host-wide BSD timers: a 500 ms *slow* timer
(retransmission bookkeeping — the "diamonds" in the paper's trace
graphs) and a 200 ms *fast* timer (delayed ACKs).  Timer phases are
randomised per host so hosts do not tick in lock-step, mirroring real
machines whose clocks are not synchronised.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.addresses import FlowId
from repro.net.node import Host
from repro.net.packet import Packet
from repro.tcp import constants as C
from repro.tcp.connection import State, TCPConnection
from repro.tcp.segment import TCPSegment
from repro.trace.records import Kind
from repro.trace.tracer import NULL_TRACER, ConnectionTracer

CCFactory = Callable[[], "object"]
ConnKey = Tuple[int, str, int]  # (local port, remote addr, remote port)


class Listener:
    """A passive-open registration on one port."""

    def __init__(self, port: int, cc_factory: CCFactory,
                 on_accept: Optional[Callable[[TCPConnection], None]],
                 options: dict):
        self.port = port
        self.cc_factory = cc_factory
        self.on_accept = on_accept
        self.options = options
        self.accepted = 0


class TCPProtocol:
    """TCP stack for one host."""

    def __init__(self, host: Host, rng: Optional[random.Random] = None,
                 slow_tick: float = C.SLOW_TICK,
                 fast_tick: float = C.FAST_TICK):
        from repro.sim.process import PeriodicTimer

        self.host = host
        self.sim = host.sim
        # Default seed from a *stable* hash of the host name: Python's
        # builtin hash() is randomized per process and would make runs
        # unreproducible across invocations.
        self.rng = rng if rng is not None else random.Random(
            zlib.crc32(host.name.encode()))
        host.protocol_handler = self._packet_arrived
        self.connections: Dict[ConnKey, TCPConnection] = {}
        # Open (not-yet-closed) subset of ``connections``, in the same
        # insertion order.  The periodic timer scans iterate this dict
        # instead of every connection ever created — a long-running
        # host accumulates closed conversations in ``connections`` (the
        # demux keeps them for residual-segment re-ACKs), and ticking
        # through thousands of corpses per 200 ms fast tick used to
        # dominate heavy-traffic runs.  Entries leave via
        # :meth:`connection_closed`; closure is terminal, so the
        # surviving iteration order matches the old filtered scan.
        self._open: Dict[ConnKey, TCPConnection] = {}
        self.listeners: Dict[int, Listener] = {}
        self._next_port = 1024
        self._slow = PeriodicTimer(self.sim, slow_tick, self._slow_tick,
                                   phase=self.rng.uniform(0.0, slow_tick))
        self._fast = PeriodicTimer(self.sim, fast_tick, self._fast_tick,
                                   phase=self.rng.uniform(0.0, fast_tick))
        self.segments_dropped = 0

    # ------------------------------------------------------------------
    # Opening connections
    # ------------------------------------------------------------------
    def connect(self, remote_addr: str, remote_port: int,
                cc: "object" = None,
                local_port: Optional[int] = None,
                mss: int = C.DEFAULT_MSS,
                sndbuf: int = C.DEFAULT_SOCKBUF,
                rcvbuf: int = C.DEFAULT_SOCKBUF,
                tracer: Optional[ConnectionTracer] = None,
                nagle: bool = True,
                delayed_acks: bool = True,
                sack: bool = False,
                ecn: bool = False) -> TCPConnection:
        """Actively open a connection; returns the new endpoint.

        ``cc`` may be a :class:`~repro.core.base.CongestionControl`
        instance (used directly) or a zero-argument factory.  ``None``
        selects Reno, the era's default.
        """
        cc_instance = self._make_cc(cc)
        if local_port is None:
            local_port = self._allocate_port()
        flow = FlowId(self.host.name, local_port, remote_addr, remote_port)
        key = (local_port, remote_addr, remote_port)
        if key in self.connections:
            raise ConfigurationError(f"connection {flow} already exists")
        conn = TCPConnection(self, flow, cc_instance, mss=mss, sndbuf=sndbuf,
                             rcvbuf=rcvbuf, tracer=tracer, nagle=nagle,
                             delayed_acks=delayed_acks, sack=sack, ecn=ecn)
        self.connections[key] = conn
        self._open[key] = conn
        self._ensure_timers()
        conn.open_active()
        return conn

    def listen(self, port: int, cc: "object" = None,
               on_accept: Optional[Callable[[TCPConnection], None]] = None,
               **options) -> Listener:
        """Register a passive open on *port*.

        ``on_accept(conn)`` is invoked for each new connection before
        its SYN is processed, so applications can install callbacks.
        Keyword *options* (mss, sndbuf, rcvbuf, tracer, nagle) are
        applied to accepted connections.
        """
        if port in self.listeners:
            raise ConfigurationError(
                f"port {port} already listening on {self.host.name}")
        listener = Listener(port, self._cc_factory(cc), on_accept, options)
        self.listeners[port] = listener
        return listener

    def _make_cc(self, cc: "object"):
        from repro.core.base import CongestionControl
        from repro.core.reno import RenoCC

        if cc is None:
            return RenoCC()
        if isinstance(cc, CongestionControl):
            return cc
        if callable(cc):
            return cc()
        raise ConfigurationError(
            f"cc must be a CongestionControl or a factory, got {cc!r}")

    def _cc_factory(self, cc: "object") -> CCFactory:
        from repro.core.base import CongestionControl
        from repro.core.reno import RenoCC

        if cc is None:
            return RenoCC
        if isinstance(cc, CongestionControl):
            raise ConfigurationError(
                "listen() needs a CC factory (class or callable), not an "
                "instance — each accepted connection gets its own controller")
        if callable(cc):
            return cc
        raise ConfigurationError(
            f"cc must be a factory (class or callable), got {cc!r}")

    def _allocate_port(self) -> int:
        while self._next_port in self.listeners:
            self._next_port += 1
        port = self._next_port
        self._next_port += 1
        return port

    # ------------------------------------------------------------------
    # Demultiplexing
    # ------------------------------------------------------------------
    def _packet_arrived(self, packet: Packet) -> None:
        # Hot path: every inbound segment on the host passes through
        # here.  The common case — an established connection — is one
        # dict probe and a branch; listener/unknown handling is pushed
        # behind it.
        seg = packet.payload
        if type(seg) is not TCPSegment and not isinstance(seg, TCPSegment):
            self.segments_dropped += 1
            return
        conn = self.connections.get((seg.dst_port, packet.src, seg.src_port))
        if conn is not None:
            conn.handle_segment(seg, ecn_marked=packet.ecn_marked)
            return
        if seg.syn and not seg.has_ack:
            listener = self.listeners.get(seg.dst_port)
            if listener is not None:
                self._accept(listener, packet, seg)
                return
        self.segments_dropped += 1

    def _accept(self, listener: Listener, packet: Packet, seg: TCPSegment) -> None:
        flow = FlowId(self.host.name, seg.dst_port, packet.src, seg.src_port)
        key = (seg.dst_port, packet.src, seg.src_port)
        conn = TCPConnection(self, flow, listener.cc_factory(),
                             **listener.options)
        self.connections[key] = conn
        self._open[key] = conn
        listener.accepted += 1
        self._ensure_timers()
        if listener.on_accept is not None:
            listener.on_accept(conn)
        conn.open_passive(seg)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _ensure_timers(self) -> None:
        if not self._slow.running:
            self._slow.start()
        if not self._fast.running:
            self._fast.start()

    def _slow_tick(self) -> None:
        """One 500 ms coarse-timer tick (the Figure-2 'diamond') per
        open connection.  Calls back into the connection only for the
        rare events (timeout fired, persist probe due); the per-tick
        common case reads and writes a few attributes.
        """
        closed = State.CLOSED
        established = State.ESTABLISHED
        closing = State.CLOSING
        now = self.sim.now
        timer_check = Kind.TIMER_CHECK
        for conn in list(self._open.values()):
            # A connection ticked earlier in this scan may have closed
            # a later one (e.g. an abort tearing down its peer).
            if conn.state is closed:
                continue
            t = conn.t_rexmt
            tracer = conn.tracer
            if tracer is not NULL_TRACER:
                tracer.record(now, timer_check, -1 if t is None else t)
            if conn._timing_seq is not None:
                conn._timing_ticks += 1
            if t is not None:
                t -= 1
                conn.t_rexmt = t
                if t <= 0:
                    conn._coarse_timeout()
            # Zero-window persist with BSD-style exponential backoff
            # (state re-read because a timeout above may have closed
            # or aborted the connection mid-tick).  Leaving persist —
            # window opened, or nothing left to send — resets the
            # backoff so the next stall starts probing promptly again.
            state = conn.state
            if ((state is not established and state is not closing)
                    or conn.peer_wnd != 0
                    or conn.sendbuf.queued_end - conn.snd_nxt <= 0):
                conn._persist_shift = 0
                conn._persist_countdown = 0
            elif conn.snd_nxt - conn.snd_una > 0:
                # An earlier probe (or data) is still unacknowledged;
                # the retransmit machinery owns it.  Backoff is kept.
                pass
            elif conn._persist_countdown > 0:
                conn._persist_countdown -= 1
            else:
                conn._persist_fire()
        if not self._open:
            self._stop_timers()

    def _fast_tick(self) -> None:
        """One 200 ms fast-timer tick: flush pending delayed ACKs."""
        closed = State.CLOSED
        for conn in list(self._open.values()):
            if conn.state is not closed and conn.recv.delack_pending:
                conn.send_ack()

    def _stop_timers(self) -> None:
        self._slow.stop()
        self._fast.stop()

    def connection_closed(self, conn: TCPConnection) -> None:
        """Hook called by connections reaching CLOSED; stops timers when idle."""
        flow = conn.flow
        self._open.pop((flow.local_port, flow.remote_addr, flow.remote_port),
                       None)
        if not self._open:
            self._stop_timers()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def connection_list(self):
        return list(self.connections.values())
