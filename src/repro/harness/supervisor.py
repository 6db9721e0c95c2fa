"""The worker body and the fork transport.

:func:`execute_cell` is the one place a cell is run for the harness:
in this process (``--no-timeout`` debugging), in a forked child, or in
a socket worker, it times the cell, brackets it with a telemetry span
and maps whatever it raised onto the failure taxonomy:

* :class:`~repro.errors.InvariantViolation` is ``check-violation`` and
  :class:`~repro.errors.SimulationStalled` is ``divergence`` — both
  carry structured diagnostics;
* anything else is ``crash``.

:func:`run_supervised` is the **fork transport** over the scheduler
core (:mod:`repro.harness.lease`): each granted lease becomes one
forked child reporting through a pipe.  The table owns attempts,
backoff, deadlines and quarantine; this module only launches, reaps
and kills:

* a child that reports settles its lease (``settle_ok`` /
  ``settle_fail``);
* a child that dies without reporting (segfault, ``os._exit``) settles
  as ``crash`` with its exit code — here the process *is* the cell;
* a child whose lease expires is terminated (then killed) and the
  attempt settles as ``timeout``.

Nothing here touches the result cache: quarantined cells are never
written to it, so a partial run cannot poison later sweeps.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvariantViolation, SimulationStalled
from repro.harness.lease import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    CellResult,
    FailureRecord,
    LeaseTable,
    note_failed_attempt,
)
from repro.harness.registry import Cell, run_cell

#: How long a terminated worker gets to die before SIGKILL.
_TERM_GRACE_S = 2.0

#: Poll granularity of the supervision loop (seconds).
_POLL_S = 0.02


def classify_error(exc: BaseException) -> Tuple[str, str, Dict[str, Any]]:
    """Map an exception onto the failure taxonomy.

    Returns ``(kind, message, detail)``.  Order matters:
    :class:`InvariantViolation` subclasses ``SimulationError`` and must
    be tested before the broader stall/crash buckets.
    """
    message = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, InvariantViolation):
        return "check-violation", message, {
            "invariant": exc.invariant,
            "sim_time": exc.sim_time,
            "subject": exc.subject,
            "flow": str(exc.flow) if exc.flow is not None else None,
            "detail": exc.detail,
        }
    if isinstance(exc, SimulationStalled):
        return "divergence", message, {
            "reason": exc.reason,
            "sim_time": exc.sim_time,
            "stalled_for": exc.stalled_for,
            "snapshot": exc.snapshot,
        }
    tb = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return "crash", message, {
        "exception": type(exc).__name__,
        "traceback": "".join(tb)[-4000:],
    }


def execute_cell(cell: Cell, checks: Any = False, faults: Any = None,
                 watchdog: Any = False, telemetry: Optional[str] = None,
                 worker: Optional[str] = None, raw: bool = False) -> tuple:
    """Run one cell, timed; the worker body of every transport.

    Returns ``("ok", metrics, wall_clock_s)`` or ``("fail", kind,
    message, detail, wall_clock_s)`` — with ``raw`` set, whatever the
    cell raised propagates instead.  With ``telemetry`` set, the cell
    is bracketed by a ``cell`` span written from this (worker) process,
    and the gauge sampler is armed for the run (see
    :func:`~repro.harness.registry.run_cell`).
    """
    start = time.perf_counter()
    try:
        if telemetry is None:
            metrics = run_cell(cell, checks=checks, faults=faults,
                               watchdog=watchdog)
        else:
            from repro.obs.events import TelemetrySink

            where = {} if worker is None else {"worker": worker}
            with TelemetrySink(telemetry) as sink:
                with sink.span("cell", cell=cell.key, **where):
                    metrics = run_cell(cell, checks=checks, faults=faults,
                                       watchdog=watchdog,
                                       telemetry=telemetry)
    except BaseException as exc:  # noqa: BLE001 - taxonomy needs everything
        if raw:
            raise
        return ("fail", *classify_error(exc), time.perf_counter() - start)
    return ("ok", metrics, time.perf_counter() - start)


def _mp_context():
    # fork inherits sys.path, loaded modules, and (crucially for the
    # tests) runtime-registered experiments; fall back to the platform
    # default elsewhere.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _child_entry(send_conn, cell: Cell, options: Dict[str, Any]) -> None:
    """Forked child: run one cell, report its payload through the pipe."""
    try:
        send_conn.send(execute_cell(cell, **options))
    finally:
        send_conn.close()


def _terminate(process, conn) -> None:
    process.terminate()
    process.join(_TERM_GRACE_S)
    if process.is_alive():
        process.kill()
        process.join()
    conn.close()


def supervise(table: LeaseTable, jobs: int, checks: Any = False,
              faults: Any = None, watchdog: Any = False,
              progress: Optional[Callable[[str], None]] = None,
              telemetry: Optional[str] = None) -> bool:
    """Drive *table* to completion on forked children; returns
    ``interrupted``.

    At most *jobs* leases are out at a time, each held by one child.
    The table may arrive part-settled (the dist master hands its table
    over when it degrades): attempts, backoff gates and attempt logs
    carry on where the previous transport left them.  Grace is zero —
    a forked child's payload crosses a pipe, not a wire.

    A ``KeyboardInterrupt`` drains: in-flight children are killed
    without settling their cells (neither successes nor failures —
    simply not run) and everything already settled is kept.
    """
    table.lease_grace_s = 0.0
    sink = None
    if telemetry is not None:
        from repro.obs.events import TelemetrySink

        sink = TelemetrySink(telemetry, run_id="supervisor")
    ctx = _mp_context()
    options = {"checks": checks, "faults": faults, "watchdog": watchdog,
               "telemetry": telemetry}
    running: Dict[str, tuple] = {}    # lease id -> (process, read end)

    def fail(lease_id: str, payload: tuple) -> None:
        task, outcome = table.settle_fail(lease_id, None, *payload,
                                          time.monotonic())
        note_failed_attempt(task, outcome, sink=sink, progress=progress)

    def reap(lease_id: str) -> None:
        process, conn = running.pop(lease_id)
        payload = None
        if conn.poll():
            try:
                payload = conn.recv()
            except EOFError:
                pass
        conn.close()
        process.join()
        if payload is None:
            code = process.exitcode
            fail(lease_id, ("crash", f"worker exited with code {code} "
                            "before reporting", {"exitcode": code}, 0.0))
        elif payload[0] == "ok":
            result = table.settle_ok(lease_id, None, *payload[1:])
            if progress is not None:
                progress(result.settled_line())
        else:
            fail(lease_id, payload[1:])

    try:
        while not table.done:
            now = time.monotonic()
            while len(running) < jobs:
                lease = table.grant(None, now)
                if lease is None:
                    break
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_child_entry,
                    args=(send_conn, lease.task.cell, options))
                process.daemon = True
                process.start()
                send_conn.close()     # parent keeps only the read end
                running[lease.lease_id] = (process, recv_conn)
            if not running:
                time.sleep(_POLL_S)   # only backoff gates left
                continue
            # Block briefly on every live pipe; a child that never
            # writes is caught by the expiry scan below.
            multiprocessing.connection.wait(
                [conn for _, conn in running.values()], timeout=_POLL_S)
            for lease_id, (process, conn) in list(running.items()):
                if conn.poll() or not process.is_alive():
                    reap(lease_id)
            now = time.monotonic()
            for lease in table.expired(now):
                _terminate(*running.pop(lease.lease_id))
                note_failed_attempt(lease.task, table.expire(lease, now),
                                    sink=sink, progress=progress)
    except KeyboardInterrupt:
        for child in running.values():
            _terminate(*child)
        if sink is not None:
            sink.emit("sweep.interrupted", settled=len(table.successes),
                      failed=len(table.failures),
                      abandoned=table.outstanding())
        return True
    finally:
        if sink is not None:
            sink.close()
    return False


def run_supervised(cells: Sequence[Cell], jobs: int,
                   timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
                   retries: int = DEFAULT_RETRIES,
                   backoff_base: float = DEFAULT_BACKOFF_BASE,
                   checks: Any = False, faults: Any = None,
                   watchdog: Any = False,
                   progress: Optional[Callable[[str], None]] = None,
                   telemetry: Optional[str] = None,
                   ) -> Tuple[List[CellResult], List[FailureRecord], bool]:
    """Execute *cells* on the fork transport; never raises for a cell.

    Returns ``(successes, failures, interrupted)``.  Every input cell
    appears in exactly one of the two lists — unless the sweep was
    interrupted (``SIGINT``), in which case in-flight and
    not-yet-started cells appear in neither, and callers can flush a
    partial artifact instead of dying with a raw traceback.
    ``timeout_s`` is the sweep-wide deadline; experiments that
    registered a :func:`~repro.harness.registry.register_timeout_hint`
    budget get the larger of the two (see
    :func:`~repro.harness.registry.cell_budget`).  With ``telemetry``
    set, retry and quarantine decisions are logged from this process
    and each child appends its own cell span and gauges.
    """
    table = LeaseTable(cells, timeout_s=timeout_s, retries=retries,
                       backoff_base=backoff_base)
    interrupted = supervise(table, jobs, checks=checks, faults=faults,
                            watchdog=watchdog, progress=progress,
                            telemetry=telemetry)
    return table.successes, table.failures, interrupted
