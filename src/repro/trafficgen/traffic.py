"""The TRAFFIC protocol: tcplib-driven background load.

"TRAFFIC starts conversations with interarrival times given by an
exponential distribution.  Each conversation can be of type TELNET,
FTP, NNTP, or SMTP ... each of these conversations runs on top of its
own TCP connection."  (§2.1)

A :class:`TrafficServer` installs the well-known-port listeners on the
destination host; a :class:`TrafficGenerator` on the source host draws
conversation types and parameters and launches them.  The generator
reports the offered/achieved statistics the paper plots in Figure 9's
bottom panel and tabulates in Table 3.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.sim.rng import weighted_choice
from repro.tcp.connection import TCPConnection
from repro.tcp.protocol import TCPProtocol
from repro.trafficgen import distributions as D
from repro.trafficgen.conversations import (
    CONVERSATION_TYPES,
    TOTALS,
    Conversation,
)
from repro.units import bytes_to_kb


class TrafficServer:
    """Server side of TRAFFIC: listeners with per-type behaviour.

    * telnet: echo a few bytes per keystroke (reverse chatter);
    * ftp control: short command replies;
    * ftp-data / smtp / nntp: sink.
    """

    def __init__(self, protocol: TCPProtocol, rng: random.Random,
                 cc_factory: Callable):
        self.protocol = protocol
        self.rng = rng
        self.bytes_received = 0

        def _sink(conn: TCPConnection) -> None:
            conn.on_data = self._count

        def _echo(conn: TCPConnection) -> None:
            conn.on_data = self._echo_data

        def _control(conn: TCPConnection) -> None:
            conn.on_data = self._control_reply

        protocol.listen(D.PORTS["telnet"], cc=cc_factory, on_accept=_echo,
                        nagle=False)
        protocol.listen(D.PORTS["ftp"], cc=cc_factory, on_accept=_control,
                        nagle=False)
        protocol.listen(D.PORTS["ftp-data"], cc=cc_factory, on_accept=_sink)
        protocol.listen(D.PORTS["smtp"], cc=cc_factory, on_accept=_sink)
        protocol.listen(D.PORTS["nntp"], cc=cc_factory, on_accept=_sink)

    def _count(self, conn: TCPConnection, nbytes: int) -> None:
        self.bytes_received += nbytes

    def _echo_data(self, conn: TCPConnection, nbytes: int) -> None:
        self.bytes_received += nbytes
        if not conn.fin_pending and not conn.fin_sent:
            conn.app_send(self.rng.randrange(1, 30))

    def _control_reply(self, conn: TCPConnection, nbytes: int) -> None:
        self.bytes_received += nbytes
        if not conn.fin_pending and not conn.fin_sent:
            conn.app_send(self.rng.randrange(20, 60))


class TrafficGenerator:
    """Client side of TRAFFIC: exponential conversation arrivals.

    Args:
        client: protocol instance on the traffic source host.
        server_addr: destination host name (must run a TrafficServer).
        rng: random stream for arrivals and conversation parameters.
        cc_factory: congestion control used by the *background*
            connections (the paper runs Tables 2/3 with both Reno and
            Vegas here).
        arrival_mean: mean seconds between conversation starts.
        mix: conversation-type weights (defaults to tcplib-ish mix).
        max_conversations: launch at most this many conversations.
    """

    def __init__(self, client: TCPProtocol, server_addr: str,
                 rng: random.Random, cc_factory: Callable,
                 arrival_mean: float = 1.0,
                 mix: Optional[Dict[str, float]] = None,
                 max_conversations: Optional[int] = None):
        self.client = client
        self.sim = client.sim
        self.server_addr = server_addr
        self.rng = rng
        self.cc_factory = cc_factory
        self.arrival_mean = arrival_mean
        self.mix = dict(mix) if mix is not None else dict(D.DEFAULT_MIX)
        self.max_conversations = max_conversations
        #: The conversations not yet spent (finished with every endpoint
        #: closed), in start order; a spent one's totals and TELNET
        #: samples are folded into the generator and it is let go.
        self.live: Dict[Conversation, None] = {}
        self.started_by_type: Dict[str, int] = {k: 0 for k in self.mix}
        self._spent_totals = dict.fromkeys(TOTALS, 0)
        self._spent_telnet: List[float] = []
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin launching conversations, the first one now."""
        self._running = True
        self.sim.schedule_anon(0.0, self._launch_one)

    def start_prescheduled(self) -> None:
        """Schedule the entire arrival process up front, the first
        launch now.

        Draws all ``max_conversations`` interarrival gaps now and
        schedules one launch event per conversation, instead of
        chaining each arrival off the previous one.  Used by the
        many-flows scaling family: the pre-scheduled start times are
        the far-future event population the engine's calendar
        scheduler is built for.  Requires ``max_conversations``.  The
        RNG draw order differs from chained :meth:`start`, so the two
        modes are distinct (deterministic) processes.
        """
        if self.max_conversations is None:
            raise ValueError("start_prescheduled requires max_conversations")
        self._running = True
        at = 0.0
        for _ in range(self.max_conversations):
            self.sim.schedule_anon(at, self._launch_scheduled)
            at += self.rng.expovariate(1.0 / self.arrival_mean)

    def stop(self) -> None:
        """Stop launching new conversations."""
        self._running = False

    def _launch_scheduled(self) -> None:
        if self._running:
            self._start_conversation()

    def _launch_one(self) -> None:
        if not self._running:
            return
        if (self.max_conversations is not None
                and self.started_count() >= self.max_conversations):
            self._running = False
            return
        self._start_conversation()
        self.sim.schedule_anon(self.rng.expovariate(1.0 / self.arrival_mean),
                               self._launch_one)

    def _start_conversation(self) -> None:
        kind = weighted_choice(self.rng, self.mix)
        conv_cls = CONVERSATION_TYPES[kind]
        conv = conv_cls(self.client, self.server_addr, self.rng,
                        self.cc_factory, on_spent=self._fold_spent)
        self.live[conv] = None
        self.started_by_type[kind] += 1
        conv.start()

    def _fold_spent(self, conv: Conversation) -> None:
        del self.live[conv]
        for counter in TOTALS:
            self._spent_totals[counter] += conv.total(counter)
        if conv.kind == "telnet":
            self._spent_telnet.extend(conv.response_times)

    # ------------------------------------------------------------------
    # Statistics (Table 3 / Figure 9 / §6)
    # ------------------------------------------------------------------
    def started_count(self) -> int:
        return sum(self.started_by_type.values())

    def finished_count(self) -> int:
        # Every conversation not live is spent, hence finished.
        return self.started_count() - sum(
            1 for c in self.live if not c.finished)

    def total(self, counter: str) -> int:
        """One of ``conversations.TOTALS`` over every conversation."""
        return self._spent_totals[counter] + sum(
            conv.total(counter) for conv in self.live)

    def throughput_kbps(self, t_start: float, t_end: float) -> float:
        """Aggregate background goodput over [t_start, t_end] in KB/s."""
        if t_end <= t_start:
            return 0.0
        return self.total("app_bytes_acked") / 1024.0 / (t_end - t_start)

    def total_retransmitted_kb(self) -> float:
        # Each endpoint's b/1024 is exact, so this is their float sum.
        return bytes_to_kb(self.total("retransmitted_bytes"))

    def telnet_response_times(self) -> List[float]:
        """All keystroke→echo latencies measured so far (§6 metric)."""
        samples = list(self._spent_telnet)
        for conv in self.live:
            if conv.kind == "telnet":
                samples.extend(conv.response_times)
        return samples
