"""The distributed sweep worker process.

One worker = one process = one cell at a time.  It connects to the
master, introduces itself with ``hello``, then loops: read a ``grant``,
run the cell through the one worker body every transport uses
(:func:`~repro.harness.supervisor.execute_cell`), and report its
payload as ``result`` or ``fail``.  A daemon thread heartbeats on the
same socket (serialised by a lock) so the master can tell "busy on a
long cell" from "dead" — the execution thread never has to come up for
air.

The worker is deliberately expendable: it holds no state the master
cannot reconstruct.  Whatever kills it — ``SIGKILL``, ``os._exit`` in
a cell, a dropped connection — the master revokes its lease and
re-queues the cell.  On master EOF or ``shutdown`` the worker simply
exits; a result it could not deliver is recomputed elsewhere.

The master's local workers are forks of it (where the platform forks):
they inherit its loaded modules and every runtime-registered
experiment, and before serving they close whatever
else came along — listening socket, sibling connections, journal and
telemetry handles — so a dead peer still reads as EOF to the rest.  A
worker attached from outside (or started where there is no ``fork``)
is a fresh interpreter and knows only what it imports: ``--preload
mod`` is how :mod:`repro.harness.dist.chaos` and extension experiments
reach those.

Attach one by hand::

    python -m repro dist worker --connect HOST:PORT \
        [--worker-id ID] [--preload MODULE]...
"""

from __future__ import annotations

import importlib
import os
import signal
import socket
import threading
from typing import Any, Dict, Sequence

from repro.harness.dist import protocol
from repro.harness.supervisor import execute_cell


def serve(connect: str, worker_id: str,
          heartbeat_interval_s: float =
          protocol.DEFAULT_HEARTBEAT_INTERVAL_S,
          preload: Sequence[str] = (), forked: bool = False) -> None:
    """Connect to the master at ``host:port`` and serve until shutdown.

    ``forked`` marks a fork of the master, which keeps nothing of it
    but stdio: not its descriptors, not its loop's signal wiring.
    """
    for module in preload:
        importlib.import_module(module)
    host, _, port = connect.rpartition(":")
    sock = socket.create_connection((host or "127.0.0.1", int(port)))
    if forked:
        # Connected first, so no stale inherited object shares its number.
        own = sock.fileno()
        os.closerange(3, own)
        os.closerange(own + 1, os.sysconf("SC_OPEN_MAX"))
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # A result written just after a beat must not sit out Nagle.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")
    write_lock = threading.Lock()

    def send(message: Dict[str, Any]) -> None:
        data = protocol.encode(message)
        with write_lock:
            sock.sendall(data)

    send(protocol.hello(worker_id, os.getpid(), socket.gethostname()))
    stop = threading.Event()

    def beat() -> None:
        seq = 0
        while not stop.wait(heartbeat_interval_s):
            seq += 1
            try:
                send(protocol.heartbeat(worker_id, seq))
            except OSError:
                return             # master gone; main loop sees EOF
    threading.Thread(target=beat, daemon=True,
                     name=f"{worker_id}-heartbeat").start()
    try:
        while True:
            line = reader.readline()
            if not line:
                break              # master gone
            message = protocol.decode(line)
            if message["type"] == "shutdown":
                break
            if message["type"] == "grant":
                cell = protocol.cell_from_grant(message)
                status, *payload = execute_cell(
                    cell, checks=message.get("checks", False),
                    faults=message.get("faults"),
                    watchdog=message.get("watchdog", False),
                    telemetry=message.get("telemetry"), worker=worker_id)
                report = protocol.result if status == "ok" else protocol.fail
                send(report(worker_id, message["lease_id"], cell.key,
                            *payload))
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover - close rarely fails
            pass


def run(args) -> int:
    serve(args.connect, args.worker_id or f"pid{os.getpid()}",
          heartbeat_interval_s=args.heartbeat, preload=args.preload)
    return 0


HELP = "attach one worker process to a listening dist master"


def configure_parser(sub) -> None:
    """Attach the ``worker`` subparser to *sub* (``repro dist``'s)."""
    parser = sub.add_parser("worker", help=HELP)
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="master address (a `dist run --workers 0 "
                        "--bind ...` master prints it)")
    parser.add_argument("--worker-id", default=None,
                        help="identity announced to the master "
                        "(default: pid-derived)")
    parser.add_argument("--heartbeat", type=float,
                        default=protocol.DEFAULT_HEARTBEAT_INTERVAL_S,
                        metavar="SECONDS", help="heartbeat interval (default "
                        f"{protocol.DEFAULT_HEARTBEAT_INTERVAL_S:g}s)")
    parser.add_argument("--preload", action="append", default=[],
                        metavar="MODULE",
                        help="import MODULE before serving (repeatable); "
                        "how runtime-registered experiments reach an "
                        "attached worker")
    parser.set_defaults(fn=run)
