"""Parallel experiment harness.

The paper's evaluation is a grid: every table and figure is a mean
over independent simulation runs — ``(experiment, protocol, buffers,
delay, seed, ...)`` combinations that share nothing but code.  This
package decomposes each experiment into those **cells** and runs them
through one pipeline:

- :mod:`repro.harness.registry` — the scenario registry: one
  :class:`~repro.harness.registry.Experiment` record per experiment
  (runner, quick/full grid, renderer, deadline budget), its cells as
  :class:`~repro.harness.registry.Cell` objects with stable string keys.
- :mod:`repro.harness.runner` — :func:`run_cells`: serves cells from
  the cache and runs the rest one of **two ways** — in this process
  (``timeout_s=None``: serial, raw exceptions, for debugging one
  cell) or on **socket workers** under the master, which is what both
  ``--jobs N`` (N workers the master forks) and ``--backend dist``
  (journal, resume, attached workers) mean.  Results are bit-identical
  whichever way, because each cell builds its own
  :class:`~repro.sim.engine.Simulator` from its own seed; each is
  written to the cache as it settles.
- :mod:`repro.harness.lease` — the **one policy**:
  :class:`~repro.harness.lease.LeaseTable` owns attempts, the
  deterministic retry backoff, per-cell deadlines, stale-result
  rejection and quarantine into the failure manifest
  (:class:`~repro.harness.lease.FailureRecord`); every settled cell
  is a :class:`~repro.harness.lease.CellResult`.
- :mod:`repro.harness.supervisor` — the worker body every way of
  running shares (:func:`~repro.harness.supervisor.execute_cell`) and
  :func:`~repro.harness.supervisor.run_supervised`, the master with
  the local settings.
- :mod:`repro.harness.cache` — an on-disk result cache under
  ``.repro-cache/`` keyed by cell key plus a content hash of
  ``src/repro``, so unchanged code never re-simulates.
- :mod:`repro.harness.artifacts` — schema-versioned JSON documents of
  every cell's metrics.
- :mod:`repro.harness.dist` — the transport: a ``selectors`` master,
  worker processes speaking line-JSON, heartbeats, journal + resume,
  and degradation to workers of its own when none is reachable.
- :mod:`repro.harness.check` — the regression gate CI runs against
  ``baselines/expected.json``.
- :mod:`repro.harness.aggregate` — folds cells into the paper-style
  tables; ``run-all`` and the individual table verbs both print it.

The CLI front end is ``python -m repro run-all``.
"""

from repro.harness.artifacts import (
    SCHEMA_VERSION,
    build_document,
    cells_fingerprint,
    load_document,
    write_document,
)
from repro.harness.cache import ResultCache, compute_src_hash
from repro.harness.lease import (
    FAILURE_KINDS,
    CellResult,
    FailureRecord,
    LeaseTable,
    retry_backoff,
)
from repro.harness.registry import (
    Cell,
    all_cells,
    cell_budget,
    cells_for,
    register_experiment,
    run_cell,
    unregister_experiment,
)
from repro.harness.runner import RunReport, run_cells
from repro.harness.supervisor import run_supervised

__all__ = [
    "FAILURE_KINDS",
    "SCHEMA_VERSION",
    "Cell",
    "CellResult",
    "FailureRecord",
    "LeaseTable",
    "ResultCache",
    "RunReport",
    "all_cells",
    "build_document",
    "cell_budget",
    "cells_fingerprint",
    "cells_for",
    "compute_src_hash",
    "load_document",
    "register_experiment",
    "retry_backoff",
    "run_cell",
    "run_cells",
    "run_supervised",
    "unregister_experiment",
    "write_document",
]
