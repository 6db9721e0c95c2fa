"""The traced pass: where one simulated event's host time goes.

One extra in-process pass over a workload's cells under ``PerfProbe``
(exact counts) and one under ``cProfile`` (self time per module),
beside untraced passes of the same cells that give the time per event
the shares are scaled by.  Everything is measured from outside, around
``run_cell``; the end-to-end metrics never run under either tracer.
"""

from __future__ import annotations

import cProfile
import gc
import inspect
import pstats
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import Spans, median
from workloads import (
    JOBS,
    SUPERVISED,
    Inputs,
    Metrics,
    count_mismatches,
    harness_pass,
    report_results,
)

from repro.harness import run_cell
from repro.perf import profiling
from repro.sim.engine import last_simulator

#: Ledger rows.  Module names are the layer names; the four packages
#: without a dotted part are reported whole, ``builtins`` is time inside
#: C functions (heapq, deque, array), ``other`` is the remainder so the
#: shares sum to one.
MODULES = ("sim.engine", "net.link", "net.queue", "net.node",
           "tcp.connection", "tcp.protocol", "tcp.receiver", "tcp.rtt",
           "tcp.buffers", "tcp.flatstate", "core", "trafficgen", "apps",
           "trace", "builtins", "other")
WHOLE_PACKAGES = ("core", "trafficgen", "apps", "trace")

#: Packages whose callbacks the engine dispatches events to.
EVENT_PACKAGES = ("sim", "net", "tcp", "trafficgen", "apps")

#: Untraced in-process passes, and cold passes through the harness:
#: both feed differences of walls, so each is a median.
PASSES = 3

#: Least profiled wall the per-module shares are taken over.
PROFILE_SECONDS = 8.0


def module_of(filename: str) -> str:
    """The ledger row a profiled function's source file belongs to."""
    if filename == "~":
        return "builtins"
    parts = Path(filename).parts
    if "repro" not in parts:
        return "other"
    rel = parts[len(parts) - parts[::-1].index("repro"):]
    if not rel:
        return "other"
    if rel[0] in WHOLE_PACKAGES:
        return rel[0]
    name = ".".join(rel)[:-len(".py")]
    return name if name in MODULES else "other"


def self_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Self-time share per ledger row; sums to one."""
    totals = dict.fromkeys(MODULES, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        totals[module_of(filename)] += tottime
    whole = sum(totals.values())
    return {name: value / whole for name, value in totals.items()}


def _callback_packages() -> Dict[str, str]:
    """Top-level callable name -> ``repro`` sub-package defining it."""
    owners: Dict[str, str] = {}
    for mod_name, module in list(sys.modules.items()):
        parts = mod_name.split(".")
        if parts[0] != "repro" or len(parts) < 2 or module is None:
            continue
        for name, obj in vars(module).items():
            if ((inspect.isclass(obj) or inspect.isfunction(obj))
                    and obj.__module__ == mod_name):
                owners[name] = parts[1]
    return owners


def event_shares(component_counts: Dict[str, int]) -> Dict[str, float]:
    """Share of dispatched events per package owning the callback."""
    owners = _callback_packages()
    totals = dict.fromkeys(EVENT_PACKAGES, 0)
    for qualname, count in component_counts.items():
        package = owners.get(qualname.split(".")[0])
        if package in totals:
            totals[package] += count
    events = sum(component_counts.values())
    return {name: count / events for name, count in totals.items()}


def _timed_cells(inputs: Inputs, spans: Spans, label: str,
                 ) -> Tuple[float, Dict[str, Metrics], int]:
    """One in-process pass; wall, metrics, largest far-event population."""
    results: Dict[str, Metrics] = {}
    far_peak = 0
    spans.new_round()
    with spans.span(label) as row:
        for cell in inputs.cells:
            with spans.span("harness.registry.run_cell", cell=cell.key):
                results[cell.key] = run_cell(cell)
            far_peak = max(far_peak, last_simulator().far_events_peak)
    return row["end"] - row["start"], results, far_peak


def measure_ledger(inputs: Inputs, spans: Spans,
                   reference: Dict[str, Metrics],
                   quick: bool = False,
                   ) -> Tuple[Dict[str, tuple], Dict[str, Any], int, int]:
    """The workload-specific per-layer metrics.

    Returns ``(metrics, ledger, attempted, failed)``: metrics as
    ``name -> (value, unit)``, the ledger table written beside the
    spans, and how many cell runs were checked against *reference*.
    *quick* (the smoke run) makes every repeated pass a single one.
    """
    passes = 1 if quick else PASSES
    profile_seconds = 0.0 if quick else PROFILE_SECONDS
    n_cells = len(inputs.cells)
    attempted = failed = 0

    def checked(results: Dict[str, Metrics]) -> None:
        nonlocal attempted, failed
        attempted += n_cells
        failed += count_mismatches(results, reference)

    walls: List[float] = []
    for _ in range(passes):
        wall, results, far_peak = _timed_cells(inputs, spans, "untraced")
        walls.append(wall)
        checked(results)
    untraced = median(walls)

    with profiling() as probe:
        _, results, _ = _timed_cells(inputs, spans, "perfprobe")
    checked(results)
    events = sum(m["events_processed"] for m in reference.values())
    if probe.events != events:
        failed += 1

    # A slow spell on the host shifts time between memory-bound and
    # compute-bound modules, so a short workload is profiled for several
    # passes until the shares rest on PROFILE_SECONDS of samples.
    # The collector runs Python callbacks (weak references to dead
    # simulators) whenever it happens to trigger; collecting before and
    # at the end of a pass makes each pass count its own garbage and no
    # one else's, so the call count is exact.
    stats = None
    profiled: List[float] = []
    while not profiled or sum(profiled) < profile_seconds:
        profiler = cProfile.Profile()
        gc.collect()
        profiler.enable()
        try:
            wall, results, _ = _timed_cells(inputs, spans, "cprofile")
            gc.collect()
        finally:
            profiler.disable()
        profiled.append(wall)
        checked(results)
        if stats is None:
            stats = pstats.Stats(profiler)
        else:
            stats.add(profiler)
    py_calls = stats.total_calls / len(profiled)

    # What the harness adds around the same cells: worker-seconds of a
    # cold uncached pass minus the in-process run time.  An engine
    # workload's one cell goes through the local supervised pool.
    colds: List[float] = []
    for _ in range(passes):
        spans.new_round()
        with spans.span("harness.runner.run_cells"):
            wall, report, _ = harness_pass(inputs, None, SUPERVISED)
        colds.append(wall)
        checked(report_results(report))
    cold = median(colds)
    overhead_ms = (cold * min(JOBS, n_cells) - untraced) / n_cells * 1e3

    ns_per_event = untraced / events * 1e9
    shares = self_shares(stats)
    metrics: Dict[str, tuple] = {
        "trace.events": (events, "count"),
        "trace.peak_heap": (probe.peak_heap, "count"),
        "trace.far_events_peak": (far_peak, "count"),
        # The profiled region holds this file's own span bookkeeping and
        # run_cell's frame: a constant handful of calls per cell.
        "trace.py_calls_per_event": (py_calls / events, "calls/event"),
        "trace.overhead_ratio": (median(profiled) / untraced, "ratio"),
        "harness.runner.overhead_ms_per_cell": (overhead_ms, "ms"),
    }
    for name, share in event_shares(probe.component_counts).items():
        metrics[f"trace.events_share.{name}"] = (share, "share")
    for name, share in shares.items():
        metrics[f"trace.self_share.{name}"] = (share, "share")
        metrics[f"trace.self_ns_per_event.{name}"] = (share * ns_per_event,
                                                      "ns/event")
    ledger = {
        "workload": inputs.workload.name, "seed": inputs.seed,
        "events": events, "py_calls": py_calls,
        "untraced_s": walls, "cprofile_s": profiled, "harness_cold_s": colds,
        "ns_per_event": ns_per_event,
        "component_counts": dict(sorted(probe.component_counts.items())),
        "self_share": shares,
    }
    return metrics, ledger, attempted, failed
