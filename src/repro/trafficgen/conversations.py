"""Conversation state machines for the TRAFFIC protocol.

Each conversation runs over its own TCP connection(s), "exactly as the
paper's TRAFFIC protocol: each of these conversations runs on top of
its own TCP connection."  Data flows client→server (loading the same
bottleneck direction as the measured transfers), with TELNET echoes
and FTP control replies providing the reverse-direction chatter the
paper notes tcplib naturally produces.

The server side lives in :class:`repro.trafficgen.traffic.TrafficServer`.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.tcp.connection import TCPConnection
from repro.tcp.protocol import TCPProtocol
from repro.trafficgen import distributions as D


#: The per-endpoint counters a conversation keeps totals of.
TOTALS = ("app_bytes_acked", "retransmitted_bytes", "coarse_timeouts")


class Conversation:
    """Base class: lifecycle bookkeeping shared by all types."""

    kind = "base"
    #: The long-lived endpoint (FTP's command one), ``None`` once closed.
    conn: Optional[TCPConnection] = None

    def __init__(self, protocol: TCPProtocol, server_addr: str,
                 rng: random.Random, cc_factory: Callable,
                 on_spent: Optional[Callable[["Conversation"], None]] = None):
        self.protocol = protocol
        self.sim = protocol.sim
        self.server_addr = server_addr
        self.rng = rng
        self.cc_factory = cc_factory
        #: Called once the conversation has finished and its last
        #: endpoint has closed: nothing it counts can change after.
        self.on_spent = on_spent
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.bytes_offered = 0
        #: The endpoints opened and not yet closed.
        self.connections: List[TCPConnection] = []
        #: :data:`TOTALS` over the endpoints that have closed.
        self.closed_totals = dict.fromkeys(TOTALS, 0)

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def start(self) -> None:
        self.started_at = self.sim.now
        self._run()

    def _run(self) -> None:
        raise NotImplementedError

    def _open(self, port: int, **options) -> TCPConnection:
        conn = self.protocol.connect(self.server_addr, port,
                                     cc=self.cc_factory(), **options)
        conn.on_closed = self._retire
        self.connections.append(conn)
        return conn

    def _retire(self, conn: TCPConnection) -> None:
        for counter in TOTALS:
            self.closed_totals[counter] += getattr(conn.stats, counter)
        self.connections.remove(conn)
        if self.conn is conn:
            self.conn = None
        self._check_spent()

    def total(self, counter: str) -> int:
        """One of :data:`TOTALS` over every endpoint opened."""
        return self.closed_totals[counter] + sum(
            getattr(conn.stats, counter) for conn in self.connections)

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished_at = self.sim.now
        self._check_spent()

    def _check_spent(self) -> None:
        if self.finished and not self.connections and self.on_spent:
            self.on_spent(self)

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class _Pusher:
    """Push a fixed number of bytes on a connection, then call back.

    The bulk building block for FTP items, SMTP messages and NNTP
    articles: writes as the send buffer allows and reports completion
    when every byte has been acknowledged.
    """

    def __init__(self, conn: TCPConnection, nbytes: int,
                 done: Callable[[], None]):
        self.conn = conn
        self.remaining = nbytes
        self.target = conn.stats.app_bytes_queued + nbytes
        self.done = done
        self._fired = False
        conn.on_send_space = self._pump
        self._pump(conn)

    def _pump(self, conn: TCPConnection) -> None:
        while self.remaining > 0:
            accepted = conn.app_send(min(self.remaining, 16 * 1024))
            if accepted == 0:
                break
            self.remaining -= accepted
        if (self.remaining == 0 and not self._fired
                and conn.stats.app_bytes_acked >= self.target):
            self._fired = True
            conn.on_send_space = None
            self.done()


class TelnetConversation(Conversation):
    """Keystrokes with think times; the server echoes each one.

    Measures per-keystroke *response time* (send → echo), the metric
    §6 of the paper uses ("the average response time in TELNET
    connections is around 25% faster when using Vegas").
    """

    kind = "telnet"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = D.draw_telnet(self.rng)
        self.sent = 0
        self.response_times: List[float] = []
        self._pending_since: Optional[float] = None

    def _run(self) -> None:
        self.conn = self._open(D.PORTS["telnet"], nagle=False)
        self.conn.on_established = lambda c: self._schedule_keystroke()
        self.conn.on_data = self._on_echo

    def _schedule_keystroke(self) -> None:
        delay = self.rng.expovariate(1.0 / self.params.think_mean)
        self.sim.schedule_anon(delay, self._send_keystroke)

    def _send_keystroke(self) -> None:
        if self.conn is None or self.conn.fin_sent:
            return
        self.conn.app_send(1)
        self.bytes_offered += 1
        self.sent += 1
        self._pending_since = self.sim.now

    def _on_echo(self, conn: TCPConnection, nbytes: int) -> None:
        if self._pending_since is not None:
            self.response_times.append(self.sim.now - self._pending_since)
            self._pending_since = None
        if self.sent >= self.params.keystrokes:
            conn.close()
            self._finish()
        else:
            self._schedule_keystroke()


class FtpConversation(Conversation):
    """Control exchange, then one data connection per item (upload)."""

    kind = "ftp"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = D.draw_ftp(self.rng)
        self._item_index = 0

    def _run(self) -> None:
        self.conn = self._open(D.PORTS["ftp"], nagle=False)
        self.conn.on_established = lambda c: self._request_next_item()
        self.conn.on_data = self._on_control_reply

    def _request_next_item(self) -> None:
        if self.conn is None:
            return
        self.conn.app_send(self.params.control_segment_size)
        self.bytes_offered += self.params.control_segment_size

    def _on_control_reply(self, conn: TCPConnection, nbytes: int) -> None:
        # Server acknowledged the command: ship the item.
        if self._item_index >= self.params.items:
            return
        size = self.params.item_sizes[self._item_index]
        self._item_index += 1
        data = self._open(D.PORTS["ftp-data"])
        self.bytes_offered += size

        def _item_done() -> None:
            data.close()
            if self._item_index < self.params.items:
                self.sim.schedule_anon(self.rng.uniform(0.1, 1.0),
                                       self._request_next_item)
            else:
                if self.conn is not None:
                    self.conn.close()
                self._finish()

        data.on_established = lambda c: _Pusher(c, size, _item_done)


class SmtpConversation(Conversation):
    """One connection, one message, close."""

    kind = "smtp"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = D.draw_smtp(self.rng)

    def _run(self) -> None:
        conn = self._open(D.PORTS["smtp"])
        size = self.params.message_size
        self.bytes_offered += size

        def _done() -> None:
            conn.close()
            self._finish()

        conn.on_established = lambda c: _Pusher(c, size, _done)


class NntpConversation(Conversation):
    """One connection, a batch of articles with small gaps."""

    kind = "nntp"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = D.draw_nntp(self.rng)
        self._index = 0

    def _run(self) -> None:
        self.conn = self._open(D.PORTS["nntp"])
        self.conn.on_established = lambda c: self._next_article()

    def _next_article(self) -> None:
        if self.conn is None:
            return
        if self._index >= self.params.articles:
            self.conn.close()
            self._finish()
            return
        size = self.params.article_sizes[self._index]
        self._index += 1
        self.bytes_offered += size
        _Pusher(self.conn, size,
                lambda: self.sim.schedule_anon(self.rng.uniform(0.05, 0.5),
                                               self._next_article))


#: Conversation type name -> class.
CONVERSATION_TYPES = {
    "telnet": TelnetConversation,
    "ftp": FtpConversation,
    "smtp": SmtpConversation,
    "nntp": NntpConversation,
}
