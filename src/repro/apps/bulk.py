"""Bulk-transfer application.

Models the paper's measured workloads: "a 1 MB transfer", "a 300 KB
transfer", etc.  The sender opens a connection, keeps the socket
buffer full until ``total_bytes`` have been queued, then closes.  A
:class:`BulkSink` listens on the receiving host and simply drains
(the default connection behaviour already consumes in-order data).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.tcp.connection import TCPConnection
from repro.tcp.protocol import TCPProtocol

#: How much the application tries to write per wakeup; anything larger
#: than the socket buffer behaves identically.
_WRITE_CHUNK = 64 * 1024


class BulkTransfer:
    """Send ``total_bytes`` over one TCP connection and close.

    The connection opens (the SYN goes out) ``start_at`` seconds after
    construction; a missing or zero ``start_at`` opens it now.  ``cc``
    is handed to :meth:`TCPProtocol.connect` as it opens, so a factory
    builds the controller then.

    Attributes:
        conn: the underlying connection (stats live in ``conn.stats``);
            ``None`` until it opens.
        done: True once every byte has been acknowledged.
        finish_time: simulated time of the final acknowledgement.
    """

    def __init__(self, protocol: TCPProtocol, remote_addr: str,
                 remote_port: int, total_bytes: int,
                 cc: object = None,
                 on_done: Optional[Callable[["BulkTransfer"], None]] = None,
                 close_when_done: bool = True,
                 start_at: float = 0.0,
                 **conn_options):
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.total_bytes = total_bytes
        self.remaining = total_bytes
        self.on_done = on_done
        self.close_when_done = close_when_done
        self.done = False
        self.finish_time: Optional[float] = None
        self.conn: Optional[TCPConnection] = None

        def _open() -> None:
            self.conn = protocol.connect(remote_addr, remote_port, cc=cc,
                                         **conn_options)
            self.conn.on_established = self._pump
            self.conn.on_send_space = self._pump

        if start_at:
            protocol.sim.schedule_anon(start_at, _open)
        else:
            _open()

    def _pump(self, conn: TCPConnection) -> None:
        while self.remaining > 0:
            accepted = conn.app_send(min(self.remaining, _WRITE_CHUNK))
            if accepted == 0:
                break
            self.remaining -= accepted
        if (self.remaining == 0 and not self.done
                and conn.stats.app_bytes_acked >= self.total_bytes):
            self.done = True
            self.finish_time = conn.now
            if self.close_when_done:
                conn.close()
            if self.on_done is not None:
                self.on_done(self)


class BulkSink:
    """Listen on a port and drain whatever arrives.

    Accepted connections close in response to the sender's FIN (the
    connection's default behaviour), so a simulation with only bulk
    transfers runs to quiescence by itself.
    """

    def __init__(self, protocol: TCPProtocol, port: int, cc: object = None,
                 **options):
        self.connections = []
        self.bytes_received = 0

        def _accept(conn: TCPConnection) -> None:
            self.connections.append(conn)
            conn.on_data = self._on_data

        self.listener = protocol.listen(port, cc=cc, on_accept=_accept,
                                        **options)

    def _on_data(self, conn: TCPConnection, nbytes: int) -> None:
        self.bytes_received += nbytes
