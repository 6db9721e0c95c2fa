"""Sweep execution: cache, then one of two ways to run a cell.

Every cell is an independent deterministic simulation — it builds its
own :class:`~repro.sim.engine.Simulator` from its own seed — so the
grid is embarrassingly parallel and the results cannot depend on
worker scheduling.  The runner therefore guarantees: for the same
registry cells, every way of running them produces identical metrics,
and a populated cache short-circuits execution entirely.

Pending cells run in this process (``timeout_s=None``: serial, raw
exceptions, for debugging) or on socket workers driven by the master
(:mod:`repro.harness.dist.master`) under one retry / deadline /
quarantine policy, :class:`~repro.harness.lease.LeaseTable`.
``backend`` only picks the master's settings: ``"local"`` is ``jobs``
workers it forks itself, ``"dist"`` adds a bind address and attach.
Every result is written to the cache as it settles, so the cache is
also how a killed sweep resumes: re-run it and only the cells that had
not completed execute.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.cache import ResultCache
from repro.harness.lease import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_RETRIES,
    CellResult,
    FailureRecord,
)
from repro.harness.registry import Cell, resolve_faults
from repro.harness.supervisor import execute_cell, local_transport


@dataclass
class RunReport:
    """Outcome of one sweep: per-cell results plus cache accounting.

    ``failures`` is the failure manifest: cells the supervised runner
    quarantined after exhausting their retries.  Every requested cell
    lands in exactly one of ``results``/``failures`` — unless
    ``interrupted`` is set, in which case cells that never settled
    before the drain appear in neither.
    """

    results: List[CellResult] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    elapsed_s: float = 0.0
    interrupted: bool = False
    backend: str = "local"

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def ok(self) -> bool:
        """True when no cell was quarantined."""
        return not self.failures


def storage_key(cell_key: str, checks: Any = False,
                faults: Any = None) -> str:
    """Cache key for one cell under a checks/faults configuration.

    Checked and faulted runs report extra metrics (and faulted runs
    produce entirely different dynamics), so each configuration gets
    its own namespace suffix; plain runs keep the bare cell key for
    compatibility with existing caches and baselines.
    """
    key = cell_key
    if checks:
        key += "#checks=collect" if checks == "collect" else "#checks"
    plan = resolve_faults(faults)
    if plan is not None:
        key += f"#faults={plan.describe()}"
    return key


def run_cells(cells: Sequence[Cell], jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              progress: Optional[Callable[[str], None]] = None,
              checks: Any = False, faults: Any = None,
              timeout_s: Optional[float] = None,
              retries: int = DEFAULT_RETRIES,
              backoff_base: float = DEFAULT_BACKOFF_BASE,
              watchdog: Any = False,
              telemetry: Optional[str] = None,
              backend: str = "local",
              dist_options: Optional[Dict[str, Any]] = None) -> RunReport:
    """Execute *cells*, serving from *cache* where possible.

    Results come back sorted by cell key regardless of execution order
    or cache state.  ``checks``/``faults``/``watchdog`` are forwarded
    to every :func:`~repro.harness.registry.run_cell`; cached entries
    are looked up under a per-configuration namespace (see
    :func:`storage_key`) so a checked or faulted sweep never serves a
    plain run's results.

    ``telemetry`` (a JSONL path) arms the run-scoped telemetry log:
    this process records the sweep bracket and cache hits, each worker
    appends its cell span and gauge samples, and the master adds
    lease/retry/quarantine events — all interleaved into the one file.
    Telemetry never affects metrics: sampler hooks schedule nothing,
    and the cache key is telemetry-independent.

    Pending cells run one of two ways:

    * with a ``timeout_s`` (or ``backend="dist"``) — on **socket
      workers** under the master (:mod:`repro.harness.dist.master`),
      each cell leased with its wall-clock deadline.
      ``backend="local"`` is ``jobs`` workers forked by the master
      (``None`` = ``os.cpu_count()``), loopback
      (:func:`~repro.harness.supervisor.local_transport`);
      ``backend="dist"`` forwards ``dist_options`` (workers/bind/
      preload/...) to
      :func:`~repro.harness.dist.master.run_distributed`, and ``jobs``
      is only how many local workers it degrades to when none of its
      own is reachable;
    * ``backend="local"`` with ``timeout_s=None`` — **in-process**:
      serially in this process, no deadline, no quarantine, crashes
      propagate raw (``jobs`` is ignored) — for debugging one cell.

    Under the master, failed cells are retried up to ``retries`` times
    with deterministic backoff, and cells that exhaust their attempts
    land in :attr:`RunReport.failures` instead of aborting the sweep
    (:class:`~repro.harness.lease.LeaseTable` is the state machine).
    A result is written to the cache the moment it settles, so a killed
    driver keeps every cell it finished and re-running the same sweep
    executes only the rest — the one way to resume; quarantined cells
    are never written (a re-run retries them), so partial runs cannot
    poison later sweeps.  Cache serving, cache writing, and result
    ordering are identical however cells ran — which is what makes
    local and distributed sweeps of the same cells produce the same
    cells fingerprint.

    A ``KeyboardInterrupt`` drains instead of propagating:
    already-settled results and failures are returned with
    :attr:`RunReport.interrupted` set, so callers can flush a partial
    artifact.
    """
    if backend not in ("local", "dist"):
        raise ValueError(f"unknown backend {backend!r} "
                         "(expected 'local' or 'dist')")
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    # Report the workers the master is asked to start: under ``dist``,
    # ``jobs`` only sizes a degraded master (2 is run_distributed's
    # default ``workers``).
    report = RunReport(jobs=jobs if backend == "local"
                       else (dist_options or {}).get("workers", 2),
                       backend=backend)
    faults = resolve_faults(faults)
    sink = None
    if telemetry is not None:
        from repro.obs.events import TelemetrySink

        sink = TelemetrySink(telemetry, run_id="harness")
        sink.emit("sweep.start", cells=len(cells), jobs=report.jobs,
                  supervised=timeout_s is not None)

    pending: List[Cell] = []
    for cell in cells:
        cache_key = storage_key(cell.key, checks=checks, faults=faults)
        payload = cache.get(cache_key) if cache is not None else None
        if payload is not None:
            report.cache_hits += 1
            report.results.append(CellResult(
                cell=cell, metrics=payload["metrics"],
                wall_clock_s=payload.get("wall_clock_s", 0.0), cached=True))
            if sink is not None:
                sink.emit("cache.hit", cell=cell.key)
            if progress is not None:
                progress(f"{cell.key}: cached")
        else:
            report.cache_misses += 1
            pending.append(cell)

    store = None
    if cache is not None:
        def store(result: CellResult) -> None:
            cache.put(storage_key(result.key, checks=checks, faults=faults),
                      {"metrics": result.metrics,
                       "wall_clock_s": result.wall_clock_s})

    options = dict(checks=checks, faults=faults, watchdog=watchdog,
                   telemetry=telemetry)
    if backend == "local" and timeout_s is None:
        try:
            for cell in pending:
                _, metrics, wall = execute_cell(cell, raw=True, **options)
                result = CellResult(cell, metrics, wall)
                if store is not None:
                    store(result)
                report.results.append(result)
                if progress is not None:
                    progress(result.settled_line())
        except KeyboardInterrupt:
            report.interrupted = True
    else:
        # Imported here so that `import repro.harness` stays free of
        # the transport's modules (sockets, selectors, multiprocessing).
        from repro.harness.dist.master import run_distributed

        transport = (local_transport(jobs) if backend == "local"
                     else {"jobs": jobs, **(dist_options or {})})
        executed, failures, report.interrupted = run_distributed(
            pending, timeout_s=timeout_s, retries=retries,
            backoff_base=backoff_base, progress=progress, on_result=store,
            **options, **transport)
        report.results.extend(executed)
        report.failures = sorted(failures, key=lambda f: f.key)

    report.results.sort(key=lambda r: r.key)
    report.elapsed_s = time.perf_counter() - started
    if sink is not None:
        sink.emit("sweep.end", ok=len(report.results),
                  failed=len(report.failures),
                  interrupted=report.interrupted,
                  cache_hits=report.cache_hits,
                  cache_misses=report.cache_misses,
                  elapsed_s=round(report.elapsed_s, 6))
        sink.close()
    return report
