"""The sweep master: the one transport every supervised cell rides.

:func:`run_distributed` takes pending cells and returns ``(successes,
failures, interrupted)``; it is how ``run_cells`` executes anything
under a deadline.  ``--jobs N`` (``backend="local"``) is N workers the
master forks, no lease grace; ``--bind`` (``backend="dist"``) adds a
listen address, attached workers and a lease grace.  Cells move to worker *processes*
speaking the :mod:`~repro.harness.dist.protocol` wire format over TCP.
Robustness is the design driver:

* work moves only as **leases** (:mod:`repro.harness.lease`): every
  grant has a deadline sized from the cell's budget, expiry re-queues
  the cell, and stale results are dropped;
* a **local** worker (one the master forked) that *exits* while holding
  a lease settles that attempt as ``crash`` with its exit code — the
  process death is the cell's (``os._exit``, a segfault, the OOM
  killer).  A worker the master itself gives up on — connection gone
  while the process lives on or is not ours, missed **heartbeats**,
  lease expired, the chaos kill — is ``worker-lost``.  Either way a
  local worker is replaced, and for free if it held a lease: that
  cell's ``retries`` already bound how often it can happen.  Only
  workers that die idle or before ``hello`` spend the **respawn
  budget**;
* every decision is a **telemetry** event (``dist.*``, ``cell.retry``,
  ``cell.quarantine``) when a sink is armed; a settled result is handed
  to ``on_result`` first, which is how ``run_cells`` writes it to the
  cache — so re-running a killed sweep executes only the remainder;
* ``SIGINT``/``SIGTERM`` **drain**: stop granting, shut workers down,
  keep everything settled, report ``interrupted=True``;
* **zero reachable workers degrades**: nobody attached inside the
  connect window, or the respawn budget is spent — the master forks
  ``jobs`` local workers onto the same table and socket (with a
  warning) instead of hanging a sweep on missing infrastructure.
  Attempts already burned stay burned; there is no second transport.

The master is one thread around a :mod:`selectors` loop: listener and
worker sockets registered for read, one ``select`` per turn, then the
scans.  A ``result`` makes its socket readable, so the next grant
leaves in the turn the result arrived; the tick only paces the
heartbeat, expiry and backoff scans.  An event-loop framework would
multiplex the same handful of sockets for 3 MB of resident modules in
every driver.  Writes are ``sendall`` under a bounded timeout: a peer
that stops reading is dropped, not waited for.  Local workers are forks
(where the platform forks) and inherit the master's modules and
registry.  Determinism note: *which* worker runs a cell is
scheduling-dependent, but cells seed themselves from their parameters,
so metrics — and the artifact cells fingerprint — do not depend on it.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pkgutil
import selectors
import signal
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.harness.dist import protocol, worker as worker_mod
from repro.harness.lease import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_RETRIES,
    CellResult,
    FailureRecord,
    LeaseTable,
    Outcome,
    Task,
    note_failed_attempt,
)
from repro.harness.registry import Cell, resolve_faults

#: Cadence (seconds) of the heartbeat, lease-expiry and backoff scans.
_TICK_S = 0.02

#: What local workers get, together, to exit on ``shutdown``.
_SHUTDOWN_GRACE_S = 2.0

#: Longest one message may take to leave.  A grant is a few hundred
#: bytes: a peer whose buffers cannot take it has stopped reading.
_SEND_TIMEOUT_S = 2.0

#: Longest line a peer may send; a ``fail`` carries kilobytes at most.
_MAX_LINE = 1 << 24

#: How long the master waits for a spawned/attached worker before
#: degrading to local workers.
DEFAULT_CONNECT_TIMEOUT_S = 15.0

#: What a worker may say after ``hello``, with the fields the handlers
#: use and their types: a peer that gets one wrong is a protocol error
#: on its connection, not a KeyError or TypeError in the master.
_WORKER_SENDS = {
    "heartbeat": {},
    "result": {"lease_id": str, "metrics": dict, "wall_clock_s": (int, float)},
    "fail": {"lease_id": str, "kind": str, "message": str,
             "wall_clock_s": (int, float)},
}


def _import_drivers() -> None:
    """Import every module of :mod:`repro.experiments`, and
    :mod:`repro.arena.cells`, which the fairness, arena and crossover
    cells run through.

    ``import repro.harness`` loads no simulator, so a cache-served sweep
    never pays for one; the master calls this before its first fork so
    that forked workers inherit the drivers instead of each importing
    them on its first cell.
    """
    import repro.experiments as package

    for module in pkgutil.iter_modules(package.__path__,
                                       package.__name__ + "."):
        importlib.import_module(module.name)
    importlib.import_module("repro.arena.cells")


class _Worker:
    """One connection, from accept to loss; a worker once it said hello."""

    __slots__ = ("sock", "buf", "worker_id", "last_beat", "lease_id")

    def __init__(self, sock: socket.socket, now: float):
        self.sock: Optional[socket.socket] = sock
        self.buf = b""
        self.worker_id: Optional[str] = None
        self.last_beat = now
        self.lease_id: Optional[str] = None


def _ignore(*args: Any, **fields: Any) -> None:
    """Stands in for an absent telemetry sink or progress."""


class _Master:
    """State and event handlers of one run."""

    def __init__(self, table: LeaseTable, *, workers: int, jobs: int,
                 bind: str, grant_config: Dict[str, Any], sink,
                 progress: Optional[Callable[[str], None]],
                 on_result: Optional[Callable[[CellResult], None]],
                 heartbeat_interval_s: float, heartbeat_misses: int,
                 preload: Sequence[str], connect_timeout_s: float,
                 chaos_kill_after: Optional[int]):
        self.table = table
        self.target_workers = workers
        self.jobs = jobs
        self.bind = bind
        self.grant_config = grant_config
        self.sink = sink
        self.progress = progress
        self._emit = sink.emit if sink is not None else _ignore
        self._say = progress or _ignore
        self.on_result = on_result
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_misses = heartbeat_misses
        self.preload = tuple(preload)
        self.connect_timeout_s = connect_timeout_s
        self.respawns_left = 2 * workers
        self.chaos_kill_after = chaos_kill_after

        self.workers: Dict[str, _Worker] = {}
        self.procs: Dict[str, Any] = {}    # worker id -> mp Process
        self.port: Optional[int] = None
        self.sel: Optional[selectors.BaseSelector] = None
        self.draining = False
        self.degraded = False
        self.ever_connected = False
        self.started = self._now()
        self.results_seen = 0
        self.workers_lost = 0
        self.respawned = 0
        self._spawned = 0
        self._chaos_fired = False

    _now = staticmethod(time.monotonic)

    # -- Worker lifecycle ------------------------------------------------
    def _spawn_worker(self) -> None:
        self._spawned += 1
        worker_id = f"w{self._spawned}"
        # fork inherits sys.path, loaded modules, and (crucially for the
        # tests) runtime-registered experiments; elsewhere, the
        # platform's default start method.
        forks = "fork" in multiprocessing.get_all_start_methods()
        if forks and self._spawned == 1:
            _import_drivers()
        proc = multiprocessing.get_context("fork" if forks else None).Process(
            target=worker_mod.serve, name=worker_id, daemon=True,
            args=(f"127.0.0.1:{self.port}", worker_id,
                  self.heartbeat_interval_s, self.preload, forks))
        proc.start()
        self.procs[worker_id] = proc

    def _over(self) -> bool:
        """Nothing further will be granted: the run loop has left."""
        return self.table.done or self.draining

    def _alive_local(self) -> int:
        return sum(1 for proc in self.procs.values() if proc.is_alive())

    def _maybe_respawn(self, free: bool = False) -> None:
        """Top the local workers back up; one comes *free* when the
        worker it replaces held a lease (the cell paid an attempt)."""
        if self._over():
            return
        while self._alive_local() < self.target_workers:
            if free:
                free = False
            elif self.respawns_left > 0:
                self.respawns_left -= 1
            else:
                break
            self.respawned += 1
            self._spawn_worker()
            self._emit("dist.worker.respawn", respawns_left=self.respawns_left)

    def _reap_procs(self) -> None:
        """Notice local workers that exited: under a cell, idle, or
        before hello (crashed at import)."""
        for worker_id, proc in list(self.procs.items()):
            if proc.is_alive():
                continue
            worker = self.workers.get(worker_id)
            if worker is None:
                del self.procs[worker_id]
            else:
                self._drop_worker(worker, f"exited with code {proc.exitcode}",
                                  exitcode=proc.exitcode)
        self._maybe_respawn()

    def _drop_worker(self, worker: _Worker, reason: str,
                     exitcode: Optional[int] = None) -> None:
        """Declare *worker* dead: settle what it held, kill, respawn.

        With *exitcode* the process ended by itself and the attempt is
        a ``crash`` of its cell; otherwise the master is giving up on
        the worker and its lease is revoked as ``worker-lost``.
        """
        if self.workers.pop(worker.worker_id, None) is not worker:
            return                     # dropped already
        self.workers_lost += 1
        now = self._now()
        busy = worker.lease_id is not None
        if busy and exitcode is not None:
            settled = self.table.settle_fail(
                worker.lease_id, worker.worker_id, "crash",
                f"worker exited with code {exitcode} before reporting",
                {"exitcode": exitcode}, 0.0, now)
            if settled is not None:
                self._note_failed_attempt(*settled, worker.worker_id)
        else:
            for lease, outcome in self.table.revoke_worker(
                    worker.worker_id, reason, now):
                self._note_failed_attempt(lease.task, outcome, lease.worker)
        self._emit("dist.worker.lost", worker=worker.worker_id, reason=reason)
        self._say(f"worker {worker.worker_id} lost ({reason})")
        self._close(worker)
        proc = self.procs.pop(worker.worker_id, None)
        if proc is not None:
            proc.kill()
            proc.join()
            self._maybe_respawn(free=busy)

    def _note_failed_attempt(self, task: Task, outcome: Outcome,
                             worker: str) -> None:
        """Announce one attempt the fail/expire/revoke paths settled."""
        note_failed_attempt(task, outcome, sink=self.sink,
                            progress=self.progress, worker=worker)

    # -- Connections: accept, split bytes into lines, dispatch -----------
    def _pump(self, timeout: float) -> None:
        """One ``select``: accept what knocked, read what arrived."""
        for key, _ in self.sel.select(timeout):
            if key.data is not None:
                self._read(key.data)
                continue
            try:
                sock, _ = key.fileobj.accept()
            except OSError:            # the peer already went away
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(_SEND_TIMEOUT_S)
            self.sel.register(sock, selectors.EVENT_READ,
                              _Worker(sock, self._now()))

    def _close(self, conn: _Worker) -> None:
        if conn.sock is not None:
            self.sel.unregister(conn.sock)
            conn.sock.close()
            conn.sock = None

    def _send(self, conn: _Worker, message: Dict[str, Any]) -> bool:
        try:
            conn.sock.sendall(protocol.encode(message))
        except (OSError, AttributeError):  # send timeout / closed before
            return False
        return True

    def _read(self, conn: _Worker) -> None:
        if conn.sock is None:          # closed earlier in this batch
            return
        try:
            data = conn.sock.recv(1 << 16)
            reason = "" if data else "connection closed"
        except OSError as exc:
            data, reason = b"", f"protocol error: {exc}"
        *lines, conn.buf = (conn.buf + data).split(b"\n")
        try:
            if len(conn.buf) > _MAX_LINE:
                raise protocol.ProtocolError("unterminated line")
            for line in lines:
                if conn.sock is not None:
                    self._on_line(conn, protocol.decode(line))
        except protocol.ProtocolError as exc:
            reason = f"protocol error: {exc}"
        if reason:
            self._close(conn)
            # A local worker's process is looked at before its
            # connection: if it exited, _reap_procs reads the exit code
            # this very turn; if it lives on, its silence is a missed
            # heartbeat.
            if conn.worker_id is not None and conn.worker_id not in self.procs:
                self._drop_worker(conn, reason)

    def _on_line(self, conn: _Worker, message: Dict[str, Any]) -> None:
        if conn.worker_id is None:
            return self._on_hello(conn, message)
        kind = message["type"]
        fields = _WORKER_SENDS.get(kind) if isinstance(kind, str) else None
        if fields is None or not all(isinstance(message.get(name), types)
                                     for name, types in fields.items()):
            raise protocol.ProtocolError(
                f"unexpected or malformed message from worker: {kind!r}")
        conn.last_beat = self._now()
        if kind == "result":
            self._on_result(conn, message)
        elif kind == "fail":
            self._on_fail(conn, message)

    def _on_hello(self, conn: _Worker, message: Dict[str, Any]) -> None:
        worker_id = protocol.check_hello(message)
        if worker_id in self.workers or self._over():
            # A hello that lands after the last settle would
            # otherwise wait for a grant until it is killed.
            self._send(conn, protocol.shutdown(
                "done" if self._over()
                else f"duplicate worker id {worker_id!r}"))
            return self._close(conn)
        conn.worker_id = worker_id
        self.workers[worker_id] = conn
        self.ever_connected = True
        self._emit("dist.worker.join", worker=worker_id)

    def _on_result(self, worker: _Worker, message: Dict[str, Any]) -> None:
        if worker.lease_id == message.get("lease_id"):
            worker.lease_id = None
        result = self.table.settle_ok(message["lease_id"], worker.worker_id,
                                      message["metrics"],
                                      message["wall_clock_s"])
        if result is None:
            self._emit("dist.stale", worker=worker.worker_id,
                       key=message.get("key"))
            return
        self.results_seen += 1
        if self.on_result is not None:
            self.on_result(result)     # before anyone is told: write-through
        self._say(result.settled_line())
        self._maybe_chaos_kill()

    def _on_fail(self, worker: _Worker, message: Dict[str, Any]) -> None:
        if worker.lease_id == message.get("lease_id"):
            worker.lease_id = None
        settled = self.table.settle_fail(
            message["lease_id"], worker.worker_id, message["kind"],
            message["message"], message.get("detail", {}),
            message["wall_clock_s"], self._now())
        if settled is None:
            self._emit("dist.stale", worker=worker.worker_id,
                       key=message.get("key"))
            return
        self._note_failed_attempt(*settled, worker.worker_id)

    def _maybe_chaos_kill(self) -> None:
        """CI fault injection: SIGKILL one busy local worker mid-sweep."""
        if (self.chaos_kill_after is None or self._chaos_fired
                or self.results_seen < self.chaos_kill_after):
            return
        victims = [w for w in self.workers.values() if w.worker_id in
                   self.procs and self.procs[w.worker_id].is_alive()]
        if not victims:
            return
        victim = next((w for w in victims if w.lease_id), victims[0])
        self._chaos_fired = True
        self._emit("dist.chaos.kill", worker=victim.worker_id)
        self._say(f"chaos: SIGKILL worker {victim.worker_id}")
        # The master's own kill: the cell did nothing, so worker-lost.
        self._drop_worker(victim, "chaos kill")

    # -- Scheduler ticks --------------------------------------------------
    def _check_heartbeats(self, now: float) -> None:
        silence = self.heartbeat_interval_s * self.heartbeat_misses
        for worker in list(self.workers.values()):
            if now - worker.last_beat > silence:
                self._drop_worker(
                    worker, f"missed {self.heartbeat_misses} heartbeats")

    def _check_expiry(self, now: float) -> None:
        for lease in self.table.expired(now):
            outcome = self.table.expire(lease, now)
            self._emit("dist.lease.expire", cell=lease.task.key,
                       worker=lease.worker, lease=lease.lease_id)
            self._note_failed_attempt(lease.task, outcome, lease.worker)
            # The (single-threaded) worker is still grinding on the
            # expired cell; reclaim the slot by dropping it.  Local
            # workers are killed and respawned; a remote worker sees
            # its connection close and exits.
            worker = self.workers.get(lease.worker)
            if worker is not None:
                self._drop_worker(worker, "lease expired")

    def _grant_idle(self, now: float) -> None:
        for worker in list(self.workers.values()):
            if worker.lease_id is not None or worker.sock is None:
                continue
            lease = self.table.grant(worker.worker_id, now)
            if lease is None:
                break
            worker.lease_id = lease.lease_id
            message = protocol.grant(
                lease.lease_id, lease.task.cell, lease.attempt,
                lease.budget_s, **self.grant_config)
            if not self._send(worker, message):
                self._drop_worker(worker, "write failed")
                continue
            self._emit("dist.lease.grant", cell=lease.task.key,
                       worker=worker.worker_id, lease=lease.lease_id,
                       attempt=lease.attempt, budget_s=lease.budget_s)

    def _check_degrade(self, now: float) -> None:
        if self.workers or self._alive_local() or self.table.done:
            return
        if self.respawns_left > 0 and self.target_workers > 0:
            return                 # a respawn is coming on the next reap
        if (not self.ever_connected
                and now - self.started < self.connect_timeout_s):
            return                 # still inside the attach window
        remaining = self.table.outstanding()
        if self.degraded:          # the local workers died idle as well
            raise ReproError(f"no worker stays alive: {remaining} cells "
                             "left unrun")
        self.degraded = True
        self._say(f"warning: no reachable dist workers — degrading "
                  f"{remaining} cells to {self.jobs} local workers")
        self._emit("dist.degrade", remaining=remaining)
        self.target_workers = self.jobs
        self.respawns_left = 2 * self.jobs
        for _ in range(self.jobs):
            self._spawn_worker()

    def _request_drain(self, signum, frame) -> None:
        self.draining = True

    # -- The run -----------------------------------------------------------
    def run(self) -> bool:
        """Bind, start the initial workers and drive the sweep to
        completion; returns ``interrupted``."""
        host, _, port = self.bind.rpartition(":")
        host = host or "127.0.0.1"
        listener = socket.create_server(
            (host, int(port or 0)),
            family=socket.AF_INET6 if ":" in host else socket.AF_INET)
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self.sel = selectors.DefaultSelector()
        self.sel.register(listener, selectors.EVENT_READ, None)
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, self._request_drain)
            except (ValueError, OSError):
                pass               # non-main thread / platform limits
        try:
            self._emit("dist.start", bind=f"{host}:{self.port}",
                       workers=self.target_workers,
                       cells=self.table.outstanding())
            if self.target_workers == 0:
                self._say(f"dist master listening on port {self.port}; "
                          f"waiting {self.connect_timeout_s:g}s for workers "
                          "to attach")
            for _ in range(self.target_workers):
                self._spawn_worker()
            while not self._over():
                # Reads first: whatever queued up while a scan blocked
                # (a full send timeout at worst) counts as heard.
                self._pump(_TICK_S)
                now = self._now()
                self._reap_procs()
                self._check_heartbeats(now)
                self._check_expiry(now)
                self._grant_idle(now)
                self._check_degrade(now)
        except KeyboardInterrupt:      # no handler of ours, or a callback's
            self.draining = True
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler or signal.SIG_DFL)
            self._shutdown_workers("drain" if self.draining else "done")
            for key in list(self.sel.get_map().values()):
                key.fileobj.close()
            self.sel.close()
        return self.draining

    def _shutdown_workers(self, reason: str) -> None:
        for worker in list(self.workers.values()):
            self._send(worker, protocol.shutdown(reason))
            self._close(worker)
        self.workers.clear()
        # Polled (a forked worker closed the pipe join(timeout) reads),
        # and pumping: a worker still connecting is told to go.
        deadline = self._now() + _SHUTDOWN_GRACE_S
        while self._alive_local() and self._now() < deadline:
            self._pump(0.001)
        for proc in self.procs.values():
            proc.kill()
            proc.join()
        self.procs.clear()


def _grant_config(checks: Any, faults: Any, watchdog: Any,
                  telemetry: Optional[str]) -> Dict[str, Any]:
    """Flatten run configuration into JSON-safe grant fields."""
    plan = resolve_faults(faults)
    if not watchdog or isinstance(watchdog, bool):
        watchdog_spec: Any = bool(watchdog)
    elif isinstance(watchdog, (int, float)):
        watchdog_spec = float(watchdog)
    else:                          # a built LivenessWatchdog
        watchdog_spec = float(getattr(watchdog, "stall_after", 0.0)) or True
    return {"checks": "collect" if checks == "collect" else bool(checks),
            "faults": plan.describe() if plan is not None else None,
            "watchdog": watchdog_spec, "telemetry": telemetry}


def run_distributed(cells: Sequence[Cell],
                    timeout_s: Optional[float] = None,
                    retries: int = DEFAULT_RETRIES,
                    backoff_base: float = DEFAULT_BACKOFF_BASE,
                    checks: Any = False, faults: Any = None,
                    watchdog: Any = False,
                    progress: Optional[Callable[[str], None]] = None,
                    telemetry: Optional[str] = None,
                    workers: int = 2, bind: str = "127.0.0.1:0",
                    heartbeat_interval_s: float =
                    protocol.DEFAULT_HEARTBEAT_INTERVAL_S,
                    heartbeat_misses: int = protocol.DEFAULT_HEARTBEAT_MISSES,
                    lease_grace_s: float = protocol.DEFAULT_LEASE_GRACE_S,
                    preload: Sequence[str] = (),
                    connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
                    chaos_kill_after: Optional[int] = None,
                    jobs: Optional[int] = None,
                    on_result: Optional[Callable[[CellResult], None]] = None,
                    ) -> Tuple[List[CellResult], List[FailureRecord], bool]:
    """Execute *cells* on worker processes; never raises for a cell.

    Returns ``(successes, failures, interrupted)``.  Every input cell
    appears in exactly one of the two lists — unless the sweep was
    interrupted (``SIGINT``/``SIGTERM``), in which case in-flight and
    not-yet-started cells appear in neither.  ``workers`` local workers
    are forked (0 = attach only: listen on ``bind`` and wait
    ``connect_timeout_s`` for ``python -m repro dist worker`` peers).
    ``preload`` modules are imported by a local worker first, which
    matters only where it cannot be forked.  ``on_result`` is called
    with each result the moment it settles, before it is announced —
    ``run_cells`` writes the cache through it, which is what lets a
    killed sweep be re-run for only its remainder.  If no worker is
    reachable (or the respawn budget is spent) the master forks
    ``jobs`` local workers (``None`` = ``os.cpu_count()``) onto the
    same lease table rather than stranding the sweep.  With nothing
    pending, no socket is bound and nothing is forked.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    sink = None
    if telemetry is not None:
        from repro.obs.events import TelemetrySink

        sink = TelemetrySink(telemetry, run_id="dist")
    table = LeaseTable(cells, timeout_s=timeout_s, retries=retries,
                       backoff_base=backoff_base,
                       lease_grace_s=lease_grace_s)
    master = _Master(
        table, workers=workers, jobs=jobs or os.cpu_count() or 1, bind=bind,
        grant_config=_grant_config(checks, faults, watchdog, telemetry),
        sink=sink, progress=progress, on_result=on_result,
        heartbeat_interval_s=heartbeat_interval_s,
        heartbeat_misses=heartbeat_misses, preload=preload,
        connect_timeout_s=connect_timeout_s,
        chaos_kill_after=chaos_kill_after)

    interrupted = master.run() if cells else False
    if sink is not None:
        sink.emit("dist.end", ok=len(table.successes),
                  failed=len(table.failures), interrupted=interrupted,
                  expired_leases=table.expired_leases,
                  stale_results=table.stale_results,
                  workers_lost=master.workers_lost,
                  respawns=master.respawned)
        sink.close()
    return table.successes, table.failures, interrupted
