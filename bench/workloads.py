"""The four benchmark workloads and their end-to-end measurement.

Two engine workloads call ``run_cell`` in this process; two sweep
workloads push the 46 light quick-grid cells through ``run_cells`` on
the local supervised pool and on the distributed backend.  All are
closed loop with one driver process: the next round starts when the
previous one has finished and been checked.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    BENCH,
    OUT,
    ROOT,
    calm,
    host_record,
    median,
    spin_ms,
    timing_summary,
)

from repro.harness import (
    Cell,
    ResultCache,
    all_cells,
    build_document,
    cells_fingerprint,
    compute_src_hash,
    run_cell,
    run_cells,
)

#: ``jobs``/``workers`` of every sweep: the nproc of the sizing host.
JOBS = 2

#: ``run_cells`` arguments of the local supervised pool.
SUPERVISED = {"jobs": JOBS, "timeout_s": 120.0}

#: How an engine workload's cell goes through ``run_cells``: serially,
#: in this process.
IN_PROCESS = {"jobs": 1}

#: Quick-grid experiments whose cells each take <= 0.2 s: the harness
#: half of the 66-cell quick sweep (the other twenty cells are the
#: engine half, sampled by the two engine workloads).
LIGHT_EXPERIMENTS = ("table1", "table4", "table5", "sendbuf",
                     "figure6", "figure7")

#: Cache-warm passes are timed after each cold pass for this long (and
#: at least ``WARM_PASSES`` of them): one pass takes 0.1-3 ms, so a
#: fixed handful would all land in one speed of the host.
WARM_PHASE_S = 0.3
WARM_PASSES = 20

#: Least wall between two ``setup_s`` probes of one run.
SETUP_SPACING_S = 2.0

EXPECTED_PATH = BENCH / "expected.json"
BASELINE_PATH = ROOT / "baselines" / "expected.json"

Metrics = Dict[str, float]


def _bulk_cells(seed: int) -> List[Cell]:
    return [Cell.make("table2", proto="vegas-1,3", buffers=10, seed=seed)]


def _many_flows_cells(seed: int) -> List[Cell]:
    return [Cell.make("many_flows", flows=1000, seed=seed)]


def light_cells(seed: int) -> List[Cell]:
    cells = []
    for cell in all_cells(quick=True, experiments=LIGHT_EXPERIMENTS):
        params = cell.as_dict()
        params["seed"] += seed
        cells.append(Cell.make(cell.experiment, **params))
    return cells


def _pinned_engine(cells: List[Cell]) -> Dict[str, Metrics]:
    with open(EXPECTED_PATH) as handle:
        pinned = json.load(handle)["cells"]
    return {cell.key: pinned[cell.key] for cell in cells}


def pinned_sweep(cells: List[Cell]) -> Dict[str, Metrics]:
    with open(BASELINE_PATH) as handle:
        by_key = {c["key"]: c["metrics"] for c in json.load(handle)["cells"]}
    return {cell.key: by_key[cell.key] for cell in cells}


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``harness`` is ``None`` for an engine workload (rounds call
    ``run_cell`` directly) or the ``run_cells`` keyword arguments of a
    sweep workload.  ``pinned`` loads the seed-0 reference metrics.
    """

    name: str
    why: str
    make_cells: Callable[[int], List[Cell]]
    pinned: Callable[[List[Cell]], Dict[str, Metrics]]
    harness: Optional[Dict[str, Any]] = None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "bulk_background",
        "table2 vegas-1,3 cell: few flows, per-packet path (tcp.connection, "
        "net.link, core) does the work; the cell class that dominates sweeps",
        _bulk_cells, _pinned_engine),
    Workload(
        "many_flows_1000",
        "1000 conversations: connection churn, tcp.protocol timer scans and "
        "the calendar scheduler do the work; guards many-connection cost",
        _many_flows_cells, _pinned_engine),
    Workload(
        "sweep_light_local",
        "46 light quick-grid cells via the local supervised pool, cold then "
        "cache-warm: harness spawn/serialise/cache work, engine does little",
        light_cells, pinned_sweep, SUPERVISED),
    Workload(
        "sweep_light_dist",
        "same 46 cells via backend=dist (leases, line-JSON): the other "
        "transport, so a gain for one that costs the other shows",
        light_cells, pinned_sweep,
        {**SUPERVISED, "backend": "dist", "dist_options": {"workers": JOBS}}),
)}


class Inputs:
    """Everything a workload needs before its first round."""

    def __init__(self, workload: Workload, seed: int, smoke: bool = False):
        self.workload = workload
        self.seed = seed
        # The smoke run checks names, not speed: every sixth cell of a
        # sweep keeps it short.
        self.cells = workload.make_cells(seed)[::6 if smoke else 1]
        self.src_hash = compute_src_hash()
        # Seed 0 is pinned to committed references; any other seed must
        # reproduce its own warm-up round exactly.
        self.pinned = workload.pinned(self.cells) if seed == 0 else None
        self._cache_serial = 0

    def cell_equivalents(self, events: int) -> float:
        """How many cells one cold pass counts as.

        A sweep counts its cells.  An engine workload's one cell runs
        up to a tenth more or fewer events from seed to seed, which
        would read as speed, so it counts as *events* over the pinned
        seed-0 cell's events: cells of the seed-0 size.
        """
        if self.workload.harness is not None:
            return float(len(self.cells))
        pinned = self.workload.pinned(self.workload.make_cells(0))
        return events / sum(m["events_processed"] for m in pinned.values())

    def fresh_cache(self) -> ResultCache:
        self._cache_serial += 1
        root = OUT / "tmp" / (f"{self.workload.name}-{self.seed}-"
                              f"{os.getpid()}-{self._cache_serial}")
        shutil.rmtree(root, ignore_errors=True)
        return ResultCache(root, self.src_hash)


def drop_cache(cache: ResultCache) -> None:
    shutil.rmtree(cache.root, ignore_errors=True)


def harness_pass(inputs: Inputs, cache: Optional[ResultCache],
                 default: Dict[str, Any] = IN_PROCESS,
                 ) -> Tuple[float, Any, str]:
    """One sweep through the harness: run_cells, document, fingerprint.

    *default* is how an engine workload's cell is run; the traced pass
    asks for the supervised pool instead.
    """
    kwargs = inputs.workload.harness or default
    start = time.perf_counter()
    report = run_cells(inputs.cells, cache=cache, **kwargs)
    doc = build_document(report, "quick", inputs.src_hash)
    fingerprint = cells_fingerprint(doc)
    return time.perf_counter() - start, report, fingerprint


def inprocess_pass(inputs: Inputs) -> Tuple[float, Dict[str, Metrics]]:
    """Every cell through ``run_cell`` in this process, serially."""
    start = time.perf_counter()
    results = {cell.key: run_cell(cell) for cell in inputs.cells}
    return time.perf_counter() - start, results


def count_mismatches(results: Dict[str, Metrics],
                     reference: Dict[str, Metrics]) -> int:
    """Cells missing from *results* or differing from *reference*."""
    return sum(1 for key, want in reference.items()
               if results.get(key) != want)


def report_results(report) -> Dict[str, Metrics]:
    return {result.key: result.metrics for result in report.results}


def reference_round(inputs: Inputs, cache: ResultCache,
                    ) -> Tuple[Dict[str, Metrics], str, int]:
    """The untimed warm-up round: reference metrics, fingerprint, failures.

    It goes through the harness for every workload, so lazy imports
    finish and *cache* is full afterwards.
    """
    _, report, fingerprint = harness_pass(inputs, cache)
    reference = report_results(report)
    if inputs.pinned is not None:
        failed = count_mismatches(reference, inputs.pinned)
    else:
        failed = len(inputs.cells) - len(reference)
    return reference, fingerprint, failed


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_end_to_end(inputs: Inputs, seconds: float,
                   setup_probe: Callable[[], float]) -> Dict[str, Any]:
    """Timed rounds with tracing off; returns the result document.

    A round is one cold pass (``run_cell`` for engine workloads; a
    fresh-cache ``run_cells`` + document + fingerprint for sweeps),
    ``WARM_PHASE_S`` of cache-warm harness passes, and one host spin.
    Rounds repeat until *seconds* have elapsed, at least once.
    *setup_probe* times one fresh set-up; it is called before the
    warm-up round and then between rounds, ``SETUP_SPACING_S`` apart, so
    that a slow second on the host cannot sit under every sample.
    """
    workload = inputs.workload
    n_cells = len(inputs.cells)
    deadline = time.perf_counter() + seconds
    setups = [setup_probe()]
    cache = inputs.fresh_cache()
    reference, ref_fingerprint, failed = reference_round(inputs, cache)
    attempted = n_cells
    events = sum(m["events_processed"] for m in reference.values())

    cold: List[float] = []
    warm: List[float] = []
    spins: List[float] = []
    rss_mb = 0.0
    next_probe = time.perf_counter() + SETUP_SPACING_S
    while not cold or time.perf_counter() < deadline:
        if workload.harness is None:
            wall, results = inprocess_pass(inputs)
        else:
            drop_cache(cache)
            cache = inputs.fresh_cache()
            wall, report, _ = harness_pass(inputs, cache)
            results = report_results(report)
        cold.append(wall)
        attempted += n_cells
        failed += count_mismatches(results, reference)
        passes = 0
        warm_until = time.perf_counter() + (WARM_PHASE_S if seconds else 0.0)
        while passes < WARM_PASSES or time.perf_counter() < warm_until:
            wall, report, fingerprint = harness_pass(inputs, cache)
            warm.append(wall)
            passes += 1
            attempted += 1
            if (report.cache_hits != n_cells
                    or fingerprint != ref_fingerprint):
                failed += 1
        if not rss_mb:
            # Garbage left by earlier cells stays resident until a full
            # collection, so the peak climbs with every round: read it
            # after a fixed amount of work, not after however many
            # rounds the host fitted into the run.
            rss_mb = peak_rss_mb()
        spins.append(spin_ms())
        if time.perf_counter() >= next_probe:
            setups.append(setup_probe())
            next_probe = time.perf_counter() + SETUP_SPACING_S
    drop_cache(cache)

    cold_s = calm(cold)
    metrics = {
        "events_per_s": (events / cold_s, "events/s"),
        "cold_cells_per_s": (inputs.cell_equivalents(events) / cold_s,
                             "cells/s"),
        "warm_cells_per_s": (n_cells / calm(warm), "cells/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (median(setups), "s"),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "info": {
            "workload": workload.name, "seed": inputs.seed,
            "src_hash": inputs.src_hash, "cells": n_cells, "events": events,
            "cold_s": timing_summary(cold), "warm_s": timing_summary(warm),
            "setup_s": timing_summary(setups),
            "spins_ms": spins, **host_record(spins),
        },
    }
