"""The distributed sweep master: the socket transport.

:func:`run_distributed` is the dist backend's entry point, with
:func:`~repro.harness.supervisor.run_supervised`'s contract — it takes
pending cells and returns ``(successes, failures, interrupted)`` — and
the same scheduler core, but moves cells to worker *processes* speaking
the :mod:`~repro.harness.dist.protocol` wire format over TCP, instead
of forked children on pipes.  Robustness is the design driver:

* work moves only as **leases** (:mod:`repro.harness.lease`): every
  grant has a deadline sized from the cell's budget, expiry re-queues
  the cell, and stale results are dropped;
* workers prove liveness with **heartbeats**; a worker that misses
  enough beats (or whose connection drops) is declared dead, its
  leases revoked as ``worker-lost``, and — when the master spawned it —
  a replacement is started, up to a respawn budget;
* every decision is appended to a **journal**
  (:mod:`~repro.harness.dist.journal`), so a killed master can be
  resumed: replay serves the settled cells and only the remainder
  executes;
* ``SIGINT``/``SIGTERM`` **drain**: stop granting, shut workers down,
  keep everything settled, report ``interrupted=True`` — the same
  partial-artifact contract as the fork transport;
* **zero reachable workers degrades**: the same lease table carries on
  over the fork transport (with a warning) instead of hanging a sweep
  on missing infrastructure — attempts already burned stay burned.

The master is a single asyncio task plus one reader coroutine per
worker connection; all lease/journal state is touched from the event
loop only, so there is no locking.  The task sleeps on one event that
hello, ``result``, ``fail`` and worker loss set, so a grant leaves in
the loop turn its cause arrived; the tick only paces the heartbeat,
expiry and backoff scans.  Local workers are forked (where the
platform forks) before the loop exists, and inherit the master's
modules and registry.  Determinism note: *which* worker
runs a cell is scheduling-dependent, but cells seed themselves from
their parameters, so metrics — and the artifact cells fingerprint —
are identical to a local run's.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.harness.dist import protocol, worker as worker_mod
from repro.harness.dist.journal import RunJournal, replay
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
from repro.harness.supervisor import _mp_context, supervise

#: Cadence (seconds) of the heartbeat, lease-expiry and backoff scans.
_TICK_S = 0.02

#: What local workers get, together, to exit on ``shutdown``.
_SHUTDOWN_GRACE_S = 2.0

#: How long the master waits for a spawned/attached worker before
#: degrading to the fork transport.
DEFAULT_CONNECT_TIMEOUT_S = 15.0


class _Worker:
    """One connected worker, from hello to loss."""

    __slots__ = ("worker_id", "writer", "last_beat", "lease_id", "lost")

    def __init__(self, worker_id: str, writer, now: float):
        self.worker_id = worker_id
        self.writer = writer
        self.last_beat = now
        self.lease_id: Optional[str] = None
        self.lost = False


class _Master:
    """State and event handlers of one distributed run."""

    def __init__(self, table: LeaseTable, *, workers: int, bind: str,
                 checks: Any, faults_spec: Optional[str], watchdog_spec: Any,
                 telemetry: Optional[str], sink, journal: Optional[RunJournal],
                 progress: Optional[Callable[[str], None]],
                 heartbeat_interval_s: float, heartbeat_misses: int,
                 preload: Sequence[str], connect_timeout_s: float,
                 chaos_kill_after: Optional[int]):
        self.table = table
        self.target_workers = workers
        self.bind = bind
        self.checks = checks
        self.faults_spec = faults_spec
        self.watchdog_spec = watchdog_spec
        self.telemetry = telemetry
        self.sink = sink
        self.journal = journal
        self.progress = progress
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_misses = heartbeat_misses
        self.preload = tuple(preload)
        self.connect_timeout_s = connect_timeout_s
        self.respawns_left = 2 * workers
        self.chaos_kill_after = chaos_kill_after

        self.workers: Dict[str, _Worker] = {}
        self.procs: Dict[str, Any] = {}    # worker id -> mp Process
        self.port: Optional[int] = None
        self._wake: Optional[asyncio.Event] = None
        self.draining = False
        self.degraded = False
        self.ever_connected = False
        self.started = self._now()
        self.results_seen = 0
        self.workers_lost = 0
        self.respawned = 0
        self._spawned = 0
        self._chaos_fired = False
        self._conn_tasks: set = set()

    @staticmethod
    def _now() -> float:
        return time.monotonic()

    # ------------------------------------------------------------------
    # Small sinks: telemetry / journal / progress, all optional.
    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields: Any) -> None:
        if self.sink is not None:
            self.sink.emit(event, **fields)

    def _rec(self, rec: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.record(rec, **fields)

    def _say(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        self._spawned += 1
        worker_id = f"w{self._spawned}"
        ctx = _mp_context()
        proc = ctx.Process(
            target=worker_mod.serve, name=worker_id, daemon=True,
            args=(f"127.0.0.1:{self.port}", worker_id,
                  self.heartbeat_interval_s, self.preload,
                  ctx.get_start_method() == "fork"))
        proc.start()
        self.procs[worker_id] = proc

    def _over(self) -> bool:
        """Nothing further will be granted: the run loop has left."""
        return self.table.done or self.draining or self.degraded

    def _alive_local(self) -> int:
        return sum(1 for proc in self.procs.values() if proc.is_alive())

    def _maybe_respawn(self) -> None:
        if self._over():
            return
        while (self._alive_local() < self.target_workers
               and self.respawns_left > 0):
            self.respawns_left -= 1
            self.respawned += 1
            self._spawn_worker()
            self._emit("dist.worker.respawn", respawns_left=self.respawns_left)

    def _reap_procs(self) -> None:
        """Notice local workers that died without ever (re)connecting."""
        for worker_id, proc in list(self.procs.items()):
            if proc.is_alive() or worker_id in self.workers:
                continue
            # Died outside a connection (e.g. crashed at import, or we
            # killed it after its connection was already dropped).
            del self.procs[worker_id]
        self._maybe_respawn()

    def _drop_worker(self, worker: _Worker, reason: str) -> None:
        """Declare *worker* dead: revoke its leases, kill, respawn."""
        if worker.lost:
            return
        worker.lost = True
        self.workers.pop(worker.worker_id, None)
        self.workers_lost += 1
        now = self._now()
        for lease, outcome in self.table.revoke_worker(
                worker.worker_id, reason, now):
            self._note_failed_attempt(lease.task, outcome, lease.worker)
        self._emit("dist.worker.lost", worker=worker.worker_id, reason=reason)
        self._rec("worker.lost", worker=worker.worker_id, reason=reason)
        self._say(f"worker {worker.worker_id} lost ({reason})")
        try:
            worker.writer.close()
        except (OSError, RuntimeError):  # pragma: no cover - close races
            pass
        proc = self.procs.pop(worker.worker_id, None)
        if proc is not None:
            proc.kill()
        self._maybe_respawn()
        self._wake.set()

    # ------------------------------------------------------------------
    # Settlement bookkeeping shared by fail/expire/revoke paths
    # ------------------------------------------------------------------
    def _note_failed_attempt(self, task: Task, outcome: Outcome,
                             worker: str) -> None:
        entry = task.attempt_log[-1]
        self._rec("attempt", key=task.key, kind=entry["kind"],
                  attempt=entry["attempt"], message=entry["message"])
        if outcome[0] == "quarantine":
            self._rec("quarantine", failure=self.table.failures[-1].as_dict())
        note_failed_attempt(task, outcome, sink=self.sink,
                            progress=self.progress, worker=worker)

    # ------------------------------------------------------------------
    # Connection handling (one coroutine per worker)
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._conn_tasks.add(asyncio.current_task())
        worker = None
        try:
            # asyncio sets this only on listeners it created itself.
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            line = await reader.readline()
            if not line:
                return
            worker_id = protocol.check_hello(protocol.decode(line))
            if worker_id in self.workers or self._over():
                # A hello that lands after the last settle would
                # otherwise wait for a grant until it is killed.
                writer.write(protocol.encode(protocol.shutdown(
                    "done" if self._over()
                    else f"duplicate worker id {worker_id!r}")))
                await writer.drain()
                return
            worker = _Worker(worker_id, writer, self._now())
            self.workers[worker_id] = worker
            self.ever_connected = True
            self._emit("dist.worker.join", worker=worker_id)
            self._rec("worker.join", worker=worker_id)
            self._wake.set()
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = protocol.decode(line)
                worker.last_beat = self._now()
                kind = message["type"]
                if kind == "heartbeat":
                    continue
                if kind == "result":
                    self._on_result(worker, message)
                elif kind == "fail":
                    self._on_fail(worker, message)
                else:
                    raise protocol.ProtocolError(
                        f"unexpected message from worker: {kind!r}")
                self._wake.set()       # the worker is idle: grant now
        except (protocol.ProtocolError, ConnectionError, OSError) as exc:
            if worker is not None:
                self._drop_worker(worker, f"protocol error: {exc}")
            return
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            if worker is not None:
                self._drop_worker(worker, "connection closed")
            try:
                writer.close()
            except (OSError, RuntimeError):  # pragma: no cover
                pass

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
        self._rec_result(result)
        self._say(result.settled_line())
        self._maybe_chaos_kill()

    def _rec_result(self, result: CellResult) -> None:
        self._rec("result", key=result.key, metrics=result.metrics,
                  wall_clock_s=result.wall_clock_s, worker=result.worker,
                  attempts=result.attempts, attempt_log=result.attempt_log)

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
        busy = [w for w in victims if w.lease_id is not None]
        victim = (busy or victims or [None])[0]
        if victim is None:
            return
        self._chaos_fired = True
        self._emit("dist.chaos.kill", worker=victim.worker_id)
        self._rec("chaos.kill", worker=victim.worker_id)
        self._say(f"chaos: SIGKILL worker {victim.worker_id}")
        self.procs[victim.worker_id].kill()

    # ------------------------------------------------------------------
    # Scheduler ticks
    # ------------------------------------------------------------------
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

    async def _grant_idle(self, now: float) -> None:
        for worker in list(self.workers.values()):
            if worker.lease_id is not None or worker.lost:
                continue
            lease = self.table.grant(worker.worker_id, now)
            if lease is None:
                break
            worker.lease_id = lease.lease_id
            message = protocol.grant(
                lease.lease_id, lease.task.cell, lease.attempt,
                lease.budget_s, checks=self.checks, faults=self.faults_spec,
                watchdog=self.watchdog_spec, telemetry=self.telemetry)
            try:
                worker.writer.write(protocol.encode(message))
                await worker.writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                self._drop_worker(worker, "write failed")
                continue
            self._emit("dist.lease.grant", cell=lease.task.key,
                       worker=worker.worker_id, lease=lease.lease_id,
                       attempt=lease.attempt, budget_s=lease.budget_s)
            self._rec("grant", key=lease.task.key, lease=lease.lease_id,
                      worker=worker.worker_id, attempt=lease.attempt,
                      budget_s=lease.budget_s)

    def _check_degrade(self, now: float) -> None:
        if self.workers or self._alive_local() or self.table.done:
            return
        if self.respawns_left > 0 and self.target_workers > 0:
            return                 # a respawn is coming on the next reap
        if (not self.ever_connected
                and now - self.started < self.connect_timeout_s):
            return                 # still inside the attach window
        self.degraded = True

    def _request_drain(self) -> None:
        self.draining = True
        self._wake.set()

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def open(self) -> socket.socket:
        """Bind and start the initial workers, before any loop exists
        for a fork to inherit; returns the listening socket."""
        host, _, port = self.bind.rpartition(":")
        host = host or "127.0.0.1"
        listener = socket.create_server(
            (host, int(port or 0)),
            family=socket.AF_INET6 if ":" in host else socket.AF_INET)
        self.port = listener.getsockname()[1]
        self._emit("dist.start", bind=f"{host}:{self.port}",
                   workers=self.target_workers,
                   cells=self.table.outstanding())
        if self.target_workers == 0:
            self._say(f"dist master listening on port {self.port}; "
                      f"waiting {self.connect_timeout_s:g}s for workers "
                      "to attach")
        for _ in range(self.target_workers):
            self._spawn_worker()
        return listener

    async def run(self, listener: socket.socket) -> bool:
        """Drive the sweep to completion; returns ``interrupted``."""
        self._wake = asyncio.Event()
        server = await asyncio.start_server(self._handle_conn, sock=listener)
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._request_drain)
                installed.append(signum)
            except (ValueError, OSError, NotImplementedError, RuntimeError):
                pass               # non-main thread / platform limits
        try:
            while not self._over():
                # Cleared first: what lands during the grant write
                # below must start the next turn at once.
                self._wake.clear()
                now = self._now()
                self._reap_procs()
                self._check_heartbeats(now)
                self._check_expiry(now)
                await self._grant_idle(now)
                self._check_degrade(now)
                tick = loop.call_later(_TICK_S, self._wake.set)
                await self._wake.wait()
                tick.cancel()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self._shutdown_workers(
                "drain" if self.draining else "done")
            server.close()
            await server.wait_closed()
            if self._conn_tasks:
                # Closed writers EOF the reader coroutines; wait for
                # them rather than cancelling (3.11's stream protocol
                # logs cancelled handler tasks noisily).
                await asyncio.wait(self._conn_tasks, timeout=2.0)
        return self.draining

    async def _shutdown_workers(self, reason: str) -> None:
        for worker in list(self.workers.values()):
            worker.lost = True     # suppress the EOF drop path
            self.workers.pop(worker.worker_id, None)
            try:
                worker.writer.write(protocol.encode(
                    protocol.shutdown(reason)))
                await worker.writer.drain()
                worker.writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
        # Polled: a forked worker closed the pipe join(timeout) reads.
        deadline = self._now() + _SHUTDOWN_GRACE_S
        while self._alive_local() and self._now() < deadline:
            await asyncio.sleep(0.001)
        self.kill_workers()

    def kill_workers(self) -> None:
        """Kill and reap every local worker still on the books."""
        for proc in self.procs.values():
            proc.kill()
            proc.join()
        self.procs.clear()


def _wire_specs(checks: Any, faults: Any,
                watchdog: Any) -> Tuple[Any, Optional[str], Any]:
    """Flatten run configuration into JSON-safe grant fields."""
    checks_spec = "collect" if checks == "collect" else bool(checks)
    plan = resolve_faults(faults)
    faults_spec = plan.describe() if plan is not None else None
    if not watchdog:
        watchdog_spec: Any = False
    elif isinstance(watchdog, bool):
        watchdog_spec = True
    elif isinstance(watchdog, (int, float)):
        watchdog_spec = float(watchdog)
    else:                          # a built LivenessWatchdog
        watchdog_spec = float(getattr(watchdog, "stall_after", 0.0)) or True
    return checks_spec, faults_spec, watchdog_spec


def _replayed_records(cells: Sequence[Cell], state
                      ) -> Tuple[List[CellResult], List[FailureRecord],
                                 List[Cell]]:
    """Split *cells* into journal-served results and the remainder."""
    successes: List[CellResult] = []
    failures: List[FailureRecord] = []
    remainder: List[Cell] = []
    for cell in cells:
        if cell.key in state.results:
            entry = state.results[cell.key]
            successes.append(CellResult(
                cell=cell, metrics=entry["metrics"],
                wall_clock_s=entry["wall_clock_s"], worker=entry["worker"],
                attempts=entry["attempts"],
                attempt_log=list(entry["attempt_log"])))
        elif cell.key in state.failures:
            entry = state.failures[cell.key]
            failures.append(FailureRecord(
                key=entry["key"], experiment=entry["experiment"],
                kind=entry["kind"], message=entry["message"],
                attempts=entry["attempts"],
                wall_clock_s=entry["wall_clock_s"],
                detail=entry.get("detail", {}),
                attempt_log=entry.get("attempt_log", [])))
        else:
            remainder.append(cell)
    return successes, failures, remainder


def run_distributed(cells: Sequence[Cell],
                    timeout_s: Optional[float] = None,
                    retries: int = DEFAULT_RETRIES,
                    backoff_base: float = DEFAULT_BACKOFF_BASE,
                    checks: Any = False, faults: Any = None,
                    watchdog: Any = False,
                    progress: Optional[Callable[[str], None]] = None,
                    telemetry: Optional[str] = None,
                    workers: int = 2,
                    bind: str = "127.0.0.1:0",
                    journal: Optional[str] = None,
                    resume: bool = False,
                    src_hash: Optional[str] = None,
                    heartbeat_interval_s: float =
                    protocol.DEFAULT_HEARTBEAT_INTERVAL_S,
                    heartbeat_misses: int = protocol.DEFAULT_HEARTBEAT_MISSES,
                    lease_grace_s: float = protocol.DEFAULT_LEASE_GRACE_S,
                    preload: Sequence[str] = (),
                    connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
                    chaos_kill_after: Optional[int] = None,
                    jobs: Optional[int] = None,
                    ) -> Tuple[List[CellResult], List[FailureRecord], bool]:
    """Execute *cells* on the distributed backend.

    Same contract as :func:`~repro.harness.supervisor.run_supervised`:
    returns ``(successes, failures, interrupted)`` and never raises for
    a cell.  ``workers`` local worker processes are forked (0 = attach
    only: listen on ``bind`` and wait ``connect_timeout_s`` for
    external ``python -m repro dist worker`` processes); each may be
    respawned twice over the run.  ``preload`` modules are imported by
    a local worker first, which matters only where it cannot be forked.
    With ``journal`` set every decision is logged; ``resume=True``
    replays an existing journal first and executes only the
    remainder.  If no worker is ever reachable (or
    every worker died and the respawn budget is spent) the lease table
    carries on over the fork transport, ``jobs`` children wide
    (``None`` = ``os.cpu_count()``), rather than stranding the sweep.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    replayed_ok: List[CellResult] = []
    replayed_fail: List[FailureRecord] = []
    pending = list(cells)
    if resume:
        if journal is None:
            raise ReproError("--resume requires --journal (the run to "
                             "resume is identified by its journal file)")
        if not os.path.exists(journal):
            raise ReproError(f"cannot resume: journal {journal!r} "
                             "does not exist")
        state = replay(journal, src_hash=src_hash)
        replayed_ok, replayed_fail, pending = _replayed_records(
            pending, state)
        if progress is not None:
            progress(f"resume: {len(replayed_ok)} results and "
                     f"{len(replayed_fail)} quarantines replayed from "
                     f"journal, {len(pending)} cells remain")

    sink = None
    if telemetry is not None:
        from repro.obs.events import TelemetrySink

        sink = TelemetrySink(telemetry, run_id="dist")
    journal_file = (RunJournal(journal, resume=resume)
                    if journal is not None else None)
    checks_spec, faults_spec, watchdog_spec = _wire_specs(
        checks, faults, watchdog)
    table = LeaseTable(pending, timeout_s=timeout_s, retries=retries,
                       backoff_base=backoff_base,
                       lease_grace_s=lease_grace_s)
    master = _Master(
        table, workers=workers, bind=bind, checks=checks_spec,
        faults_spec=faults_spec, watchdog_spec=watchdog_spec,
        telemetry=telemetry, sink=sink, journal=journal_file,
        progress=progress, heartbeat_interval_s=heartbeat_interval_s,
        heartbeat_misses=heartbeat_misses, preload=preload,
        connect_timeout_s=connect_timeout_s,
        chaos_kill_after=chaos_kill_after)
    if resume:
        master._rec("run.resume", replayed=len(replayed_ok),
                    remaining=len(pending))
    else:
        master._rec("run.start", src_hash=src_hash, cells=len(pending),
                    workers=workers, timeout_s=timeout_s, retries=retries)

    interrupted = False
    if pending:
        listener = master.open()   # forks: before any loop exists
        loop = asyncio.new_event_loop()
        try:
            asyncio.set_event_loop(loop)
            interrupted = loop.run_until_complete(master.run(listener))
        except KeyboardInterrupt:
            interrupted = True
            master.kill_workers()
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    if master.degraded and not interrupted and table.pending:
        if progress is not None:
            progress(f"warning: no reachable dist workers — degrading "
                     f"{len(table.pending)} cells to the fork transport")
        if sink is not None:
            sink.emit("dist.degrade", remaining=len(table.pending))
        master._rec("degrade", remaining=len(table.pending))
        n_ok, n_failed = len(table.successes), len(table.failures)
        interrupted = supervise(
            table, jobs or os.cpu_count() or 1, checks=checks,
            faults=faults, watchdog=watchdog, progress=progress,
            telemetry=telemetry)
        for result in table.successes[n_ok:]:
            master._rec_result(result)
        for failure in table.failures[n_failed:]:
            master._rec("quarantine", failure=failure.as_dict())

    successes = replayed_ok + table.successes
    failures = replayed_fail + table.failures

    if sink is not None:
        sink.emit("dist.end", ok=len(successes), failed=len(failures),
                  interrupted=interrupted,
                  expired_leases=table.expired_leases,
                  stale_results=table.stale_results,
                  workers_lost=master.workers_lost,
                  respawns=master.respawned)
        sink.close()
    master._rec("run.end", ok=len(successes), failed=len(failures),
                interrupted=interrupted)
    if journal_file is not None:
        journal_file.close()
    return successes, failures, interrupted
