"""The worker body, and the local way into the one transport.

:func:`execute_cell` is the one place a cell is run for the harness:
in this process (``--no-timeout`` debugging) or in a socket worker, it
times the cell, brackets it with a telemetry span and maps whatever it
raised onto the failure taxonomy:

* :class:`~repro.errors.InvariantViolation` is ``check-violation`` and
  :class:`~repro.errors.SimulationStalled` is ``divergence`` — both
  carry structured diagnostics;
* anything else is ``crash``.

:func:`run_supervised` is what ``--jobs N`` means: the socket master
(:mod:`repro.harness.dist.master`) with N workers it forks itself, on
loopback, with no lease grace.  There is no second
transport behind it: a hung cell's worker is killed at the deadline
(``timeout``), a worker that dies under its cell is that cell's
``crash`` with the exit code, and the
:class:`~repro.harness.lease.LeaseTable` owns attempts, backoff and
quarantine exactly as it does for ``--bind``.
"""

from __future__ import annotations

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
)
from repro.harness.registry import Cell, run_cell


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


def local_transport(jobs: int) -> Dict[str, Any]:
    """What ``--jobs N`` asks of the master: N workers it forks itself
    (and as many again if it must degrade), default loopback bind and
    no lease grace — the deadline is the cell's budget, a loopback hop
    needs no allowance."""
    return {"workers": jobs, "jobs": jobs, "lease_grace_s": 0.0}


def run_supervised(cells: Sequence[Cell], jobs: int,
                   timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
                   retries: int = DEFAULT_RETRIES,
                   backoff_base: float = DEFAULT_BACKOFF_BASE,
                   checks: Any = False, faults: Any = None,
                   watchdog: Any = False,
                   progress: Optional[Callable[[str], None]] = None,
                   telemetry: Optional[str] = None,
                   ) -> Tuple[List[CellResult], List[FailureRecord], bool]:
    """Execute *cells* on *jobs* forked workers; never raises for a cell.

    Returns ``(successes, failures, interrupted)``: this is
    :func:`~repro.harness.dist.master.run_distributed` with
    :func:`local_transport`'s settings, and what ``run_cells`` does for
    ``backend="local"``.  ``timeout_s`` is the sweep-wide deadline;
    experiments whose record declares a ``budget`` get the larger of
    the two (see :func:`~repro.harness.registry.cell_budget`).
    """
    from repro.harness.dist.master import run_distributed

    return run_distributed(
        cells, timeout_s=timeout_s, retries=retries,
        backoff_base=backoff_base, checks=checks, faults=faults,
        watchdog=watchdog, progress=progress, telemetry=telemetry,
        **local_transport(jobs))
