"""Scenario registry: every paper artifact decomposed into cells.

A **cell** is one independent simulation run — the atom of the
evaluation grid.  ``table2`` is 27 cells (3 protocols x 3 buffer
counts x 3 seeds); ``figure7`` is a single traced run.  Cells carry a
stable string key (``table2/buffers=10/proto=reno/seed=0``) used for
caching, JSON artifacts, and the regression baseline, so the key
format is a compatibility contract: changing it invalidates every
cached and committed result.

Each experiment registers a *grid* (quick and full variants) and a
*runner* that executes one cell and returns a flat ``{metric: number}``
dict.  Runners are module-level functions so cells can cross a
``multiprocessing`` pickle boundary.  Seeds are part of the cell
parameters — never derived from worker identity — which is what makes
``--jobs 1`` and ``--jobs N`` bit-identical by construction.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Metric key every runner gets for free (see :func:`run_cell`).
EVENTS_METRIC = "events_processed"


def _fmt(value: Any) -> str:
    """Render one parameter value for a cell key, stably."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


@dataclass(frozen=True)
class Cell:
    """One grid point: an experiment name plus its parameters.

    ``params`` is a key-sorted tuple of pairs so cells are hashable,
    picklable, and render to the same key however they were built.
    """

    experiment: str
    params: Tuple[Tuple[str, Any], ...]

    @classmethod
    def make(cls, experiment: str, **params: Any) -> "Cell":
        return cls(experiment, tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def key(self) -> str:
        parts = [self.experiment]
        parts.extend(f"{k}={_fmt(v)}" for k, v in self.params)
        return "/".join(parts)

    def __str__(self) -> str:
        return self.key


# ----------------------------------------------------------------------
# Cell runners: one function per experiment, returning flat metrics.
# Imports are deferred so pool workers only load what their cells use.
# ----------------------------------------------------------------------

def _table1_cell(small: str, large: str, buffers: int, delay: float,
                 seed: int) -> Dict[str, float]:
    from repro.experiments.one_on_one import run_one_on_one

    result = run_one_on_one(small, large, delay, buffers, seed=seed)
    return {
        "small_throughput_kbps": result.small.throughput_kbps,
        "small_retransmit_kb": result.small.retransmitted_kb,
        "small_coarse_timeouts": result.small.coarse_timeouts,
        "large_throughput_kbps": result.large.throughput_kbps,
        "large_retransmit_kb": result.large.retransmitted_kb,
        "large_coarse_timeouts": result.large.coarse_timeouts,
    }


def _table2_cell(proto: str, buffers: int, seed: int) -> Dict[str, float]:
    from repro.experiments.background import run_with_background

    run = run_with_background(proto, buffers=buffers, seed=seed)
    return {**run.transfer.metrics(),
            "background_throughput_kbps": run.background_throughput_kbps}


def _table3_cell(background: str, transfer: str, buffers: int,
                 seed: int) -> Dict[str, float]:
    from repro.experiments.background import run_with_background

    run = run_with_background(transfer, background_cc=background,
                              buffers=buffers, seed=seed)
    return {
        "background_throughput_kbps": run.background_throughput_kbps,
        "transfer_throughput_kbps": run.transfer.throughput_kbps,
    }


def _table4_cell(proto: str, seed: int) -> Dict[str, float]:
    from repro.experiments.internet import run_internet_transfer

    return run_internet_transfer(proto, seed=seed).metrics()


def _table5_cell(proto: str, size_kb: int, seed: int) -> Dict[str, float]:
    from repro.experiments.internet import run_internet_transfer
    from repro.units import kb

    return run_internet_transfer(proto, size=kb(size_kb), seed=seed).metrics()


def _traced_metrics(graph, result) -> Dict[str, float]:
    return {**result.metrics(), "segments_lost": graph.losses()}


def _figure6_cell(seed: int) -> Dict[str, float]:
    from repro.experiments.traces import figure6

    return _traced_metrics(*figure6(seed=seed))


def _figure7_cell(seed: int) -> Dict[str, float]:
    from repro.experiments.traces import figure7

    return _traced_metrics(*figure7(seed=seed))


def _figure9_cell(seed: int) -> Dict[str, float]:
    from repro.experiments.traces import figure9

    return _traced_metrics(*figure9(seed=seed))


def _sendbuf_cell(cc: str, size_kb: int, seed: int) -> Dict[str, float]:
    """§4.3 "Different TCP send-buffer sizes": one 1 MB solo transfer.

    "For this experiment, we tried send-buffer sizes between 50KB and
    5KB.  Vegas' throughput and losses stayed unchanged between 50KB
    and 20KB; from that point on, as the buffer decreased, so did the
    throughput ... Reno's throughput initially *increased* as the
    buffers got smaller, and then it decreased.  It always remained
    under the throughput measured for Vegas."

    A small send buffer caps the window and therefore stops Reno from
    overrunning the bottleneck queue — an external fix for the exact
    problem Vegas solves internally.
    """
    from repro.experiments.transfers import run_solo_transfer
    from repro.units import kb

    return run_solo_transfer(cc, seed=seed, sndbuf=kb(size_kb)).metrics()


def _fairness_cell(cc: str, count: int, mixed: bool,
                   seed: int) -> Dict[str, float]:
    from repro.experiments.fairness_exp import run_competing_connections
    from repro.units import kb, mb

    # 2 MB transfers for 2/4 connections, 512 KB for 16.
    size = mb(2) if count <= 4 else kb(512)
    result = run_competing_connections(cc, count, transfer_bytes=size,
                                       mixed_delays=mixed, buffers=20,
                                       seed=seed)
    return {
        "fairness_index": result.fairness_index,
        "aggregate_throughput_kbps": result.aggregate_throughput,
        "retransmit_kb": result.total_retransmit_kb,
        "coarse_timeouts": result.coarse_timeouts,
    }


def _twoway_cell(proto: str, buffers: int, seed: int) -> Dict[str, float]:
    """§4.3 "Two-way background traffic": a Table-2 run plus reverse load.

    "We modified the experiment in Section 4.2 by adding tcplib traffic
    from Host3b to Host3a.  The throughput ratio stayed the same, but
    the loss ratio was much better: 0.29.  Reno resent more data and
    Vegas remained about the same."

    Reverse-direction traffic compresses and batches ACKs, which makes
    Reno's ACK clock burstier (more self-induced drops) while Vegas'
    fine-grained retransmit and CAM are largely unaffected.
    """
    from repro.experiments.background import run_with_background

    return run_with_background(proto, buffers=buffers, seed=seed,
                               two_way=True).transfer.metrics()


def _telnet_cell(cc: str, seed: int) -> Dict[str, float]:
    from repro.experiments.telnet_response import run_telnet_response

    result = run_telnet_response(cc, seed=seed, arrival_mean=0.22,
                                 duration=120.0)
    return {
        "mean_response_s": result.mean,
        "median_response_s": result.median,
        "p95_response_s": result.p95,
        "n_samples": len(result.samples),
    }


def _many_flows_cell(flows: int, seed: int) -> Dict[str, float]:
    from repro.experiments.many_flows import many_flows_metrics

    return many_flows_metrics(flows, seed)


# Arena matchup cells (see repro.arena): registered as built-in
# runners so worker processes resolve them by name under any
# multiprocessing start method, but with *no* fixed grid — their cells
# come from the parameterized ``arena`` family (family_cells) instead
# of the run-all sweep.

def _arena_solo_cell(scheme: str, scenario: str, seed: int) -> Dict[str, float]:
    from repro.arena.cells import arena_solo

    return arena_solo(scheme, scenario, seed)


def _arena_duel_cell(a: str, b: str, scenario: str,
                     seed: int) -> Dict[str, float]:
    from repro.arena.cells import arena_duel

    return arena_duel(a, b, scenario, seed)


def _arena_mix_cell(scheme: str, cross: str, n_cross: int, scenario: str,
                    seed: int) -> Dict[str, float]:
    from repro.arena.cells import arena_mix

    return arena_mix(scheme, cross, n_cross, scenario, seed)


def _search_cohort_cell(schemes: str, bw_kbps: float, delay_ms: float,
                        buffers: int, size_kb: int, loss: float,
                        seed: int) -> Dict[str, float]:
    from repro.search.cells import run_search_cohort

    return run_search_cohort(schemes=schemes, bw_kbps=bw_kbps,
                             delay_ms=delay_ms, buffers=buffers,
                             size_kb=size_kb, loss=loss, seed=seed)


_RUNNERS: Dict[str, Callable[..., Dict[str, float]]] = {
    "table1": _table1_cell,
    "table2": _table2_cell,
    "table3": _table3_cell,
    "table4": _table4_cell,
    "table5": _table5_cell,
    "figure6": _figure6_cell,
    "figure7": _figure7_cell,
    "figure9": _figure9_cell,
    "sendbuf": _sendbuf_cell,
    "fairness": _fairness_cell,
    "twoway": _twoway_cell,
    "telnet": _telnet_cell,
    "many_flows": _many_flows_cell,
    "arena_solo": _arena_solo_cell,
    "arena_duel": _arena_duel_cell,
    "arena_mix": _arena_mix_cell,
    "search_cohort": _search_cohort_cell,
}


# ----------------------------------------------------------------------
# Grids: the quick/full parameter sweeps.  The paper's values are
# declared once, in repro.experiments.defaults — imported inside each
# grid so ``import repro.harness`` does not load the experiments
# package — and a quick grid is a slice of the full one.  Every grid
# takes the seed axis as an optional second argument: the paper verbs
# pass ``--seed``/``--seeds`` there, ``run-all`` leaves the default.
# ----------------------------------------------------------------------

def _seed_axis(seeds: Optional[Sequence[int]], quick: bool,
               quick_runs: int) -> Sequence[int]:
    """The caller's seeds, else ``quick_runs``/the full run count."""
    if seeds is not None:
        return seeds
    from repro.experiments import defaults as DFLT

    return range(quick_runs if quick else DFLT.RUNS_PER_CONDITION)


def _table1_grid(quick: bool, seeds: Sequence[int] = (0,)) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    delays = DFLT.TABLE1_DELAYS[::2] if quick else DFLT.TABLE1_DELAYS
    runs = [(nbuf, delay) for nbuf in DFLT.TABLE1_BUFFERS for delay in delays]
    # Table 1's seed is the run index: one per (buffers, delay) grid
    # point, restarting per combo, counted from each base in *seeds*.
    return [Cell.make("table1", small=small, large=large, buffers=nbuf,
                      delay=delay, seed=base + index)
            for small, large in DFLT.TABLE1_COMBOS for base in seeds
            for index, (nbuf, delay) in enumerate(runs)]


def _background_buffers(quick: bool) -> Tuple[int, ...]:
    from repro.experiments import defaults as DFLT

    return DFLT.TABLE2_BUFFERS[:1] if quick else DFLT.TABLE2_BUFFERS


def _table2_grid(quick: bool,
                 seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    seeds = _seed_axis(seeds, quick, 1)
    return [Cell.make("table2", proto=proto, buffers=nbuf, seed=seed)
            for proto in DFLT.TRANSFER_PROTOCOLS
            for nbuf in _background_buffers(quick) for seed in seeds]


def _table3_grid(quick: bool,
                 seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    seeds = _seed_axis(seeds, quick, 1)
    return [Cell.make("table3", background=bg, transfer=xfer,
                      buffers=nbuf, seed=seed)
            for bg in ("reno", "vegas") for xfer in ("reno", "vegas")
            for nbuf in _background_buffers(quick) for seed in seeds]


def _table4_grid(quick: bool,
                 seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    seeds = _seed_axis(seeds, quick, 2)
    return [Cell.make("table4", proto=proto, seed=seed)
            for proto in DFLT.TRANSFER_PROTOCOLS for seed in seeds]


def _table5_grid(quick: bool,
                 seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    sizes = DFLT.INTERNET_SIZES_KB[1:] if quick else DFLT.INTERNET_SIZES_KB
    seeds = _seed_axis(seeds, quick, 2)
    return [Cell.make("table5", proto=proto, size_kb=size, seed=seed)
            for size in sizes for proto in DFLT.TRANSFER_PROTOCOLS[:2]
            for seed in seeds]


def _figure_grid(name: str):
    def grid(quick: bool, seeds: Sequence[int] = (0,)) -> List[Cell]:
        return [Cell.make(name, seed=seed) for seed in seeds]
    return grid


def _sendbuf_grid(quick: bool, seeds: Sequence[int] = (0,)) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    sizes = DFLT.SENDBUF_SIZES_KB[::3] if quick else DFLT.SENDBUF_SIZES_KB
    return [Cell.make("sendbuf", cc=cc, size_kb=size, seed=seed)
            for cc in ("reno", "vegas") for size in sizes for seed in seeds]


def _fairness_grid(quick: bool, seeds: Sequence[int] = (0,)) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    counts = DFLT.FAIRNESS_COUNTS[::2] if quick else DFLT.FAIRNESS_COUNTS
    return [Cell.make("fairness", cc=cc, count=count, mixed=mixed, seed=seed)
            for count in counts for cc in ("reno", "vegas")
            for mixed in (False, True) for seed in seeds]


def _twoway_grid(quick: bool,
                 seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    seeds = _seed_axis(seeds, quick, 1)
    return [Cell.make("twoway", proto=proto, buffers=nbuf, seed=seed)
            for proto in ("reno", "vegas")
            for nbuf in _background_buffers(quick) for seed in seeds]


def _telnet_grid(quick: bool,
                 seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    seeds = _seed_axis(seeds, quick, 1)
    return [Cell.make("telnet", cc=cc, seed=seed)
            for cc in ("reno", "vegas") for seed in seeds]


_GRIDS: Dict[str, Callable[..., List[Cell]]] = {
    "table1": _table1_grid,
    "table2": _table2_grid,
    "table3": _table3_grid,
    "table4": _table4_grid,
    "table5": _table5_grid,
    "figure6": _figure_grid("figure6"),
    "figure7": _figure_grid("figure7"),
    "figure9": _figure_grid("figure9"),
    "sendbuf": _sendbuf_grid,
    "fairness": _fairness_grid,
    "twoway": _twoway_grid,
    "telnet": _telnet_grid,
}

#: Registry order — also the order ``run-all`` reports experiments in.
EXPERIMENTS: Tuple[str, ...] = tuple(_GRIDS)


# ----------------------------------------------------------------------
# Cell families: parameterized grids generated from selection
# arguments (scheme/scenario/seed subsets), unlike the fixed quick/full
# experiment grids above.  A family's cells run through the same
# supervised runner/cache/quarantine pipeline as any sweep cell.
# ----------------------------------------------------------------------

def _arena_family(**selection) -> List[Cell]:
    from repro.arena.matrix import generate_matrix

    return generate_matrix(**selection)


def _many_flows_family(flows=None, seeds=(0,)) -> List[Cell]:
    from repro.experiments.many_flows import BENCH_FLOW_COUNTS

    counts = BENCH_FLOW_COUNTS if flows is None else tuple(flows)
    return [Cell.make("many_flows", flows=n, seed=seed)
            for n in counts for seed in seeds]


def _search_family(objective: str = "vegas_regret", count: int = 4,
                   seed: int = 0, quick: bool = False) -> List[Cell]:
    from repro.search.driver import family_preview_cells

    return family_preview_cells(objective, count=count, seed=seed,
                                quick=quick)


_FAMILIES: Dict[str, Callable[..., List[Cell]]] = {
    "arena": _arena_family,
    "many_flows": _many_flows_family,
    "search": _search_family,
}


def families() -> List[str]:
    """Sorted list of registered cell-family names."""
    return sorted(_FAMILIES)


def register_family(name: str,
                    generator: Callable[..., List[Cell]]) -> None:
    """Register a parameterized cell family at runtime."""
    if name in _FAMILIES:
        raise ReproError(f"cell family {name!r} is already registered")
    _FAMILIES[name] = generator


def family_cells(name: str, **selection: Any) -> List[Cell]:
    """Generate one family's cells from keyword selection arguments."""
    try:
        generator = _FAMILIES[name]
    except KeyError:
        known = ", ".join(families())
        raise ReproError(
            f"unknown cell family {name!r} (known: {known})") from None
    return generator(**selection)


# ----------------------------------------------------------------------
# Per-cell timeout hints: experiments whose cells need more wall clock
# than the global supervised deadline declare their own budget here, so
# a nightly sweep never needs a global ``--timeout`` bump just because
# one family is slow — and the distributed master sizes leases per cell.
# ----------------------------------------------------------------------

#: experiment -> float seconds, or callable(params dict) -> seconds.
_TIMEOUT_HINTS: Dict[str, Any] = {}


def register_timeout_hint(experiment: str, hint: Any) -> None:
    """Declare a per-cell wall-clock budget for one experiment.

    *hint* is either a float (seconds) or a callable taking the cell's
    params dict and returning seconds — e.g. ``many_flows`` scales its
    budget with the flow count.  Hints only ever *raise* the effective
    deadline (see :func:`cell_budget`); they can never shrink it below
    the sweep-wide timeout.  Re-registering replaces the prior hint.
    """
    _TIMEOUT_HINTS[experiment] = hint


def timeout_hint(cell: Cell) -> Optional[float]:
    """The declared budget of *cell* in seconds, or ``None``.

    Hints are validated here, at use time, because a callable hint only
    misbehaves once it sees a concrete params dict — and the supervisor
    and dist master both call this mid-sweep, where a raw ``TypeError``
    or a NaN deadline would otherwise surface as an opaque crash.
    """
    hint = _TIMEOUT_HINTS.get(cell.experiment)
    if hint is None:
        return None
    if callable(hint):
        try:
            value = hint(cell.as_dict())
        except Exception as exc:
            raise ReproError(
                f"timeout hint for experiment {cell.experiment!r} raised "
                f"{type(exc).__name__} on cell {cell.key!r}: {exc}") from exc
    else:
        value = hint
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"timeout hint for experiment {cell.experiment!r} returned "
            f"non-numeric budget {value!r} for cell {cell.key!r}") from exc
    if math.isnan(seconds) or seconds <= 0:
        raise ReproError(
            f"timeout hint for experiment {cell.experiment!r} returned "
            f"invalid budget {seconds!r} for cell {cell.key!r} "
            f"(must be a positive number of seconds)")
    return seconds


def cell_budget(cell: Cell,
                timeout_s: Optional[float]) -> Optional[float]:
    """Effective supervised deadline for *cell*.

    ``None`` (unsupervised / no deadline) passes through.  Otherwise
    the budget is the *larger* of the sweep-wide ``timeout_s`` and the
    cell's registered hint: a hint widens slow families without letting
    a forgotten registration silently shrink anyone's deadline.
    """
    if timeout_s is None:
        return None
    hint = timeout_hint(cell)
    if hint is None:
        return timeout_s
    return max(timeout_s, hint)


# The 500/1,000-conversation cells legitimately run for minutes; size
# their deadline with the population instead of bumping every sweep's
# global timeout (quick cells keep the tight default).
register_timeout_hint(
    "many_flows", lambda params: max(180.0, 1.2 * params.get("flows", 0)))

# Search points range over arbitrary cohort sizes and horizons; give
# each flow a generous slice so a slow corner of the space quarantines
# on its own merits rather than on the sweep-wide default.
register_timeout_hint(
    "search_cohort",
    lambda params: max(150.0,
                       30.0 * len(str(params.get("schemes", "")).split("+"))))


def register_experiment(name: str,
                        runner: Callable[..., Dict[str, float]],
                        grid: Optional[Callable[[bool], List[Cell]]] = None,
                        ) -> None:
    """Register an extra experiment at runtime.

    Used by extension code and the supervisor test-suite to add cells
    beyond the paper's grids.  *runner* must be a module-level callable
    (cells cross process boundaries); *grid*, when given, makes the
    experiment part of :func:`all_cells` sweeps.  Worker processes see
    runtime registrations only under the ``fork`` start method — the
    supervised runner's default on POSIX.
    """
    global EXPERIMENTS
    if name in _RUNNERS:
        raise ReproError(f"experiment {name!r} is already registered")
    _RUNNERS[name] = runner
    if grid is not None:
        _GRIDS[name] = grid
        EXPERIMENTS = tuple(_GRIDS)


def unregister_experiment(name: str) -> None:
    """Remove a runtime registration (idempotent; built-ins protected)."""
    global EXPERIMENTS
    if name in _BUILTIN_EXPERIMENTS:
        raise ReproError(f"cannot unregister built-in experiment {name!r}")
    _RUNNERS.pop(name, None)
    _TIMEOUT_HINTS.pop(name, None)
    if _GRIDS.pop(name, None) is not None:
        EXPERIMENTS = tuple(_GRIDS)


# Covers grid experiments *and* grid-less built-in runners (the arena
# cell families dispatch through those).
_BUILTIN_EXPERIMENTS = frozenset(_RUNNERS)


def cells_for(experiment: str, quick: bool = False,
              seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    """All cells of one experiment's grid (quick or full variant).

    *seeds* replaces the grid's seed axis: every condition runs once
    per seed (for ``table1``, whose seed is the run index, each is a
    base).  Only the built-in grids have one; a runtime-registered
    grid is ``(quick) -> cells``.
    """
    try:
        grid = _GRIDS[experiment]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise ReproError(
            f"unknown experiment {experiment!r} (known: {known})") from None
    return grid(quick) if seeds is None else grid(quick, seeds)


def all_cells(quick: bool = False,
              experiments: Optional[Iterable[str]] = None) -> List[Cell]:
    """The full sweep: every experiment's grid, in registry order."""
    names = list(experiments) if experiments is not None else list(EXPERIMENTS)
    cells: List[Cell] = []
    for name in names:
        cells.extend(cells_for(name, quick=quick))
    return cells


def resolve_faults(faults: Any):
    """Normalise a faults argument to a FaultPlan (or None).

    Accepts ``None``, a spec/profile string, or a ``FaultPlan``; a
    plan that injects nothing collapses to ``None`` so clean runs stay
    on the clean cache namespace.
    """
    if faults is None:
        return None
    from repro.faults.plan import FaultPlan

    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.parse(faults)
    return None if plan.is_null() else plan


def resolve_watchdog(watchdog: Any):
    """Normalise a watchdog argument to a LivenessWatchdog (or None).

    Accepts ``False``/``None`` (off), ``True`` (default stall window),
    a number of simulated seconds, or a built
    :class:`~repro.sim.watchdog.LivenessWatchdog`.
    """
    if not watchdog:
        return None
    from repro.sim.watchdog import LivenessWatchdog

    if isinstance(watchdog, LivenessWatchdog):
        return watchdog
    if isinstance(watchdog, bool):
        return LivenessWatchdog()
    return LivenessWatchdog(stall_after=float(watchdog))


def runner_signature(experiment: str):
    """The :class:`inspect.Signature` of *experiment*'s cell runner:
    the parameters a cell of it must name."""
    import inspect

    try:
        return inspect.signature(_RUNNERS[experiment])
    except KeyError:
        known = ", ".join(sorted(_RUNNERS))
        raise ReproError(
            f"unknown experiment {experiment!r} (known: {known})") from None


def run_cell(cell: Cell, checks: Any = False,
             faults: Any = None, watchdog: Any = False,
             telemetry: Optional[str] = None) -> Dict[str, float]:
    """Execute one cell and return its metrics.

    Adds ``events_processed`` (from the cell's simulator, via
    :func:`repro.sim.engine.last_simulator`) to whatever the
    experiment runner reports.

    ``checks`` enables the runtime invariant checker for the run:
    truthy for fail-fast (``"raise"``), or ``"collect"`` to record
    violations and report their count as the ``invariant_violations``
    metric.  ``faults`` composes a fault plan (spec string, profile
    name, or :class:`~repro.faults.plan.FaultPlan`) onto the cell's
    topology; the injector's summed counters join the metrics.
    ``watchdog`` arms the liveness guard (see :func:`resolve_watchdog`),
    turning a stalled simulation into a typed
    :class:`~repro.errors.SimulationStalled` instead of a spin to the
    horizon.  ``telemetry`` (a JSONL path) arms the telemetry gauge
    sampler (:mod:`repro.obs`) for the run; the file is opened in
    append mode so a sweep's workers interleave into one log.  All of
    them are armed through :mod:`repro.sim.observers` for exactly the
    run; their hooks schedule nothing, so none of them ever changes
    ``events_processed``.
    """
    from repro.sim import engine, observers

    try:
        runner = _RUNNERS[cell.experiment]
    except KeyError:
        raise ReproError(f"no runner for experiment {cell.experiment!r}") from None

    them = {}
    if checks:
        from repro.checks.checker import InvariantChecker

        mode = "collect" if checks == "collect" else "raise"
        them["checker"] = InvariantChecker(mode=mode)
    plan = resolve_faults(faults)
    if plan is not None:
        from repro.faults.injector import FaultSession

        them["faults"] = FaultSession(plan)
    guard = resolve_watchdog(watchdog)
    if guard is not None:
        them["watchdog"] = guard
    gauging = nullcontext()
    if telemetry is not None:
        from repro.obs.gauges import observing

        gauging = observing(path=telemetry, cell=cell.key)
    engine._last_simulator = None
    with observers.armed(**them), gauging:
        metrics = runner(**cell.as_dict())
    sim = engine.last_simulator()
    if sim is not None:
        metrics[EVENTS_METRIC] = sim.events_processed
    checker = them.get("checker")
    if checker is not None:
        metrics["invariant_violations"] = float(len(checker.violations))
        if checker.violations:
            import sys

            for violation in checker.violations[:10]:
                print(f"invariant violation in {cell.key}: {violation}",
                      file=sys.stderr)
    if "faults" in them:
        for name, value in sorted(them["faults"].totals().items()):
            metrics[f"fault_{name}"] = float(value)
    return metrics
