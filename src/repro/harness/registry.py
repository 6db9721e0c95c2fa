"""Scenario registry: every paper artifact decomposed into cells.

A **cell** is one independent simulation run — the atom of the
evaluation grid.  ``table2`` is 27 cells (3 protocols x 3 buffer
counts x 3 seeds); ``figure7`` is a single traced run.  Cells carry a
stable string key (``table2/buffers=10/proto=reno/seed=0``) used for
caching, JSON artifacts, and the regression baseline, so the key
format is a compatibility contract: changing it invalidates every
cached and committed result.

Each experiment is one :class:`Experiment` record in :data:`RECORDS`:
a *runner* that executes one cell and returns a flat ``{metric:
number}`` dict, and optionally a *grid* (quick and full variants), a
*renderer* and a per-cell wall-clock *budget*.  Runners are
module-level functions so cells can cross a process boundary.  Seeds
are part of the cell parameters — never derived from worker identity —
which is what makes ``--jobs 1`` and ``--jobs N`` bit-identical by
construction.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.harness import aggregate as A

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
    ``key`` is rendered once, at construction: a sweep reads it several
    times per cell, and it is derived, so equality and hashing ignore it.
    """

    experiment: str
    params: Tuple[Tuple[str, Any], ...]
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = [self.experiment]
        parts.extend(f"{k}={_fmt(v)}" for k, v in self.params)
        object.__setattr__(self, "key", "/".join(parts))

    @classmethod
    def make(cls, experiment: str, **params: Any) -> "Cell":
        return cls(experiment, tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def __str__(self) -> str:
        return self.key


# ----------------------------------------------------------------------
# Cell runners: one function per experiment, returning flat metrics.
# Imports are deferred so pool workers only load what their cells use.
# ----------------------------------------------------------------------

def _table1_cell(small: str, large: str, buffers: int, delay: float,
                 seed: int) -> Dict[str, float]:
    from repro.experiments.one_on_one import run_one_on_one

    run = run_one_on_one(small, large, delay, buffers, seed=seed)
    return {**run.small.metrics("small_"), **run.large.metrics("large_")}


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


def _table1bg_cell(small: str, large: str, buffers: int, delay: float,
                   seed: int) -> Dict[str, float]:
    """§4.3 "One-on-One Experiments with background traffic"."""
    from repro.experiments.one_on_one import run_one_on_one

    run = run_one_on_one(small, large, delay, buffers, seed=seed,
                         with_background=True)
    return {**run.small.metrics("small_"), **run.large.metrics("large_")}


def _traced_metrics(graph, result) -> Dict[str, float]:
    """A traced run's numbers and the counts of its graph elements
    (Figures 2, 3 and 8)."""
    from repro.trace import series as S

    common, windows = graph.common, graph.windows
    cwnd = windows.congestion_window
    panels = (cwnd, windows.send_window, windows.bytes_in_transit,
              windows.threshold_window, graph.sending_rate)
    t_end = cwnd[-1][0] if cwnd else 0.0
    metrics = {**result.metrics(), "segments_lost": graph.losses(),
               "done": float(result.done),
               "send_marks": len(common.send_marks),
               "ack_marks": len(common.ack_marks),
               "kb_marks": len(common.kilobyte_marks),
               "timer_diamonds": len(common.timer_diamonds),
               "timeout_circles": len(common.timeout_circles),
               "window_points": min(len(panel) for panel in panels),
               "cwnd_sawteeth": S.sawtooth_count(cwnd),
               "cwnd_tail_spread": S.steady_state_stats(
                   cwnd, t_start=0.6 * t_end, t_end=t_end)[1]}
    if graph.cam is not None:
        cam = graph.cam
        diffs = [diff for _, diff in cam.diff_buffers]
        metrics.update(
            cam_decisions=len(diffs), diff_min=min(diffs),
            diff_max=max(diffs),
            actual_over_expected=max(
                actual / expected for (_, expected), (_, actual)
                in zip(cam.expected, cam.actual) if expected))
    return metrics


def _figure_cell(name: str):
    def run(seed: int) -> Dict[str, float]:
        from repro.experiments import traces

        return _traced_metrics(*getattr(traces, name)(seed=seed))
    return run


def _figure4_cell(cc: str, seed: int) -> Dict[str, float]:
    from repro.experiments.ablation import double_loss

    return double_loss(cc, seed=seed)


def _ablation_cell(scheme: str, path: str, size_kb: int,
                   seed: int) -> Dict[str, float]:
    """One ablation: a solo Figure-5 or an Internet-path transfer under
    a variant :func:`repro.experiments.ablation.ablation_cc` names."""
    from repro.experiments.ablation import ablation_cc, transfer_metrics
    from repro.experiments.internet import run_internet_transfer
    from repro.experiments.transfers import run_solo_transfer
    from repro.units import kb

    runners = {"solo": run_solo_transfer, "internet": run_internet_transfer}
    if path not in runners:
        raise ReproError(f"unknown ablation path {path!r}; "
                         f"available: {sorted(runners)}")
    return transfer_metrics(runners[path](ablation_cc(scheme),
                                          size=kb(size_kb), seed=seed))


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
    """§4.3 "Multiple competing connections": *count* flows of *cc*.

    "We ran simulations with 2, 4, and 16 connections sharing a
    bottleneck link, where all the connections either had the same
    propagation delay, or where one half of the connections had twice
    the propagation delay of the other half. ... There were no
    stability problems in the case of 16 connections sharing the
    bottleneck link, even though there were only 20 buffers at the
    router."

    The cohort is the arena's dumbbell over the Figure-5 bottleneck
    with 20 buffers; ``mixed`` doubles the second half's access delay.
    Sums fold in flow *start* order, the order the committed baselines
    were computed in (flow order moves some metrics in the last digit).
    """
    from repro.arena.cells import run_cohort
    from repro.arena.scenarios import get_scenario
    from repro.metrics.fairness import jain_fairness_index
    from repro.numeric import fold_sum
    from repro.units import kb, mb

    # 2 MB transfers for 2/4 connections, 512 KB for 16.
    spec = replace(get_scenario("classic"), buffers=20, horizon=600.0,
                   transfer_bytes=mb(2) if count <= 4 else kb(512))
    delays = [spec.access_delay * (2 if mixed and i >= count // 2 else 1)
              for i in range(count)]
    flows = sorted(run_cohort([cc] * count, spec, seed=seed,
                              access_delays=delays),
                   key=lambda flow: flow.start)
    throughputs = [flow.throughput_kbps for flow in flows]
    return {
        "fairness_index": jain_fairness_index(throughputs),
        "aggregate_throughput_kbps": fold_sum(throughputs),
        "retransmit_kb": fold_sum(flow.retransmitted_kb for flow in flows),
        "coarse_timeouts": sum(flow.coarse_timeouts for flow in flows),
        "all_done": float(all(flow.done for flow in flows)),
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
    """§6 TELNET response time: keystroke→echo latencies of a
    TRAFFIC-only run over *cc* (p95 is the nearest-rank sample)."""
    import statistics

    from repro.experiments.background import run_world

    samples = run_world(cc, seed=seed, arrival_mean=0.22).telnet_samples
    ordered = sorted(samples) or [0.0]
    return {
        "mean_response_s": statistics.fmean(ordered),
        "median_response_s": statistics.median(ordered),
        "p95_response_s": ordered[int(0.95 * len(ordered))],
        "n_samples": len(samples),
    }


def _allvegas_cell(cc: str, buffers: int, seed: int) -> Dict[str, float]:
    import statistics

    from repro.experiments.background import run_world

    world = run_world(cc, buffers=buffers, seed=seed, arrival_mean=0.25)
    samples = world.telnet_samples
    return {
        "goodput_kbps": world.goodput_kbps,
        "retransmit_kb": world.retransmit_kb,
        "coarse_timeouts": world.coarse_timeouts,
        "conversations": world.conversations,
        "telnet_mean_response_s": (statistics.fmean(samples) if samples
                                   else 0.0),
    }


def _many_flows_cell(flows: int, seed: int) -> Dict[str, float]:
    from repro.experiments.many_flows import many_flows_metrics

    return many_flows_metrics(flows, seed)


def _arena_cell(mode: str, scenario: str, seed: int, scheme: str = "",
                a: str = "", b: str = "", cross: str = "",
                n_cross: int = 0) -> Dict[str, float]:
    """One arena matchup: *mode* picks the family, which reads
    ``scheme`` (solo), ``a``/``b`` (duel) or ``scheme``/``cross``/
    ``n_cross`` (mix)."""
    from repro.arena import cells

    if mode == "solo":
        return cells.arena_solo(scheme, scenario, seed)
    if mode == "duel":
        return cells.arena_duel(a, b, scenario, seed)
    if mode == "mix":
        return cells.arena_mix(scheme, cross, n_cross, scenario, seed)
    raise ReproError(f"unknown arena mode {mode!r} (known: solo, duel, mix)")


def _crossover_cell(bw_kbps: float, delay_ms: float, buffers: int,
                    seed: int) -> Dict[str, float]:
    from repro.arena.cells import arena_crossover

    return arena_crossover(bw_kbps, delay_ms, buffers, seed)


# ----------------------------------------------------------------------
# Grids: the quick/full parameter sweeps.  The paper's values are
# declared once, in repro.experiments.defaults — imported inside each
# grid so ``import repro.harness`` does not load the experiments
# package — and a quick grid is a slice of the full one.  Every grid
# takes the seed axis as an optional second argument: ``run-all
# --seed/--seeds`` passes it there, and without them the default holds.
# ----------------------------------------------------------------------

def _seed_axis(seeds: Optional[Sequence[int]], quick: bool, quick_runs: int,
               full_runs: Optional[int] = None) -> Sequence[int]:
    """The caller's seeds, else the quick or full run count."""
    if seeds is not None:
        return seeds
    from repro.experiments import defaults as DFLT

    return range(quick_runs if quick else full_runs or DFLT.RUNS_PER_CONDITION)


def _one_on_one_cells(name: str, delays: Sequence[float],
                      seeds: Sequence[int]) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    grid = [(nbuf, delay) for nbuf in DFLT.TABLE1_BUFFERS for delay in delays]
    # Table 1's seed is the run index: one per (buffers, delay) grid
    # point, restarting per combo, counted from each base in *seeds*.
    return [Cell.make(name, small=small, large=large, buffers=nbuf,
                      delay=delay, seed=base + index)
            for small, large in DFLT.TABLE1_COMBOS for base in seeds
            for index, (nbuf, delay) in enumerate(grid)]


def _table1_grid(quick: bool, seeds: Sequence[int] = (0,)) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    delays = DFLT.TABLE1_DELAYS[::2] if quick else DFLT.TABLE1_DELAYS
    return _one_on_one_cells("table1", delays, seeds)


def _table1bg_grid(quick: bool, seeds: Sequence[int] = (0,)) -> List[Cell]:
    """Table 1's quick runs, with background traffic, in both grids."""
    from repro.experiments import defaults as DFLT

    return _one_on_one_cells("table1bg", DFLT.TABLE1_DELAYS[::2], seeds)


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


def _figure4_grid(quick: bool, seeds: Sequence[int] = (3,)) -> List[Cell]:
    return [Cell.make("figure4", cc=cc, seed=seed)
            for cc in ("reno", "vegas", "vegas-nofine") for seed in seeds]


def _ablation_grid(quick: bool,
                   seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    from repro.experiments import defaults as DFLT

    cells = [Cell.make("ablation", scheme=scheme, path="solo",
                       size_kb=1024, seed=seed)
             for scheme in DFLT.ABLATION_SOLO
             for seed in _seed_axis(seeds, quick, 1, 1)]
    return cells + [Cell.make("ablation", scheme=scheme, path="internet",
                              size_kb=size, seed=seed)
                    for scheme, size, runs in DFLT.ABLATION_INTERNET
                    for seed in _seed_axis(seeds, quick, 1, runs)]


def _allvegas_grid(quick: bool,
                   seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    """The quick grid is the scarce and the ample buffer count."""
    from repro.experiments import defaults as DFLT

    return [Cell.make("allvegas", cc=cc, buffers=nbuf, seed=seed)
            for nbuf in DFLT.ALLVEGAS_BUFFERS[::2 if quick else 1]
            for cc in ("reno", "vegas")
            for seed in _seed_axis(seeds, quick, 1, 2)]


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


def _arena_grid(quick: bool,
                seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    """Every matchup over each (schemes, scenarios) block, declared by
    name so enumerating it loads no simulator."""
    from repro.arena.matrix import matrix_cells
    from repro.experiments import defaults as DFLT

    seeds = _seed_axis(seeds, quick, 1)
    return [cell for schemes, scenarios
            in (DFLT.ARENA_QUICK if quick else DFLT.ARENA_FULL)
            for cell in matrix_cells(schemes, scenarios, seeds)]


def _crossover_grid(quick: bool,
                    seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    """The quick grid is every other buffer count from 10 to 50."""
    from repro.experiments import defaults as DFLT

    buffers = DFLT.CROSSOVER_BUFFERS
    return [Cell.make("crossover", bw_kbps=bw, delay_ms=delay, buffers=nbuf,
                      seed=seed)
            for bw, delay in DFLT.CROSSOVER_POINTS
            for nbuf in (buffers[1:10:2] if quick else buffers)
            for seed in _seed_axis(seeds, quick, 1, DFLT.CROSSOVER_RUNS)]


def _render_arena(cells: Sequence[Dict[str, Any]]) -> str:
    """``league.render_league``, imported on use as the runners are."""
    from repro.arena.league import render_league

    return render_league(cells)


# ----------------------------------------------------------------------
# The experiment table: one record per experiment, in sweep order.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """Everything the harness knows about one experiment.

    ``run`` executes one cell.  ``grid(quick, seeds=...)`` makes the
    experiment part of :func:`all_cells` sweeps, and ``render`` folds
    its cells into a paper-style section (:mod:`repro.harness.aggregate`).
    ``budget`` is the per-cell wall-clock budget in seconds, or a
    callable from the cell's params dict to seconds, for cells that
    need more than the sweep-wide deadline (see :func:`cell_budget`).
    """

    run: Callable[..., Dict[str, float]]
    grid: Optional[Callable[..., List[Cell]]] = None
    render: Optional[Callable[..., str]] = None
    budget: Any = None


#: Every experiment by name.  Dict order is sweep order and the order
#: ``run-all`` reports in; runtime registrations are appended.  The
#: grid-less record is run from the verb that names its cells
#: (``profile``).
RECORDS: Dict[str, Experiment] = {
    "table1": Experiment(_table1_cell, _table1_grid, A.render_table1),
    "table2": Experiment(_table2_cell, _table2_grid, A.render_table2),
    "table3": Experiment(_table3_cell, _table3_grid, A.render_table3),
    "table4": Experiment(_table4_cell, _table4_grid, A.render_table4),
    "table5": Experiment(_table5_cell, _table5_grid, A.render_table5),
    "figure1": Experiment(_figure_cell("figure1"), _figure_grid("figure1"),
                          A.render_figure1),
    "figure4": Experiment(_figure4_cell, _figure4_grid, A.render_figure4),
    "figure6": Experiment(_figure_cell("figure6"), _figure_grid("figure6"),
                          A.render_figure6),
    "figure7": Experiment(_figure_cell("figure7"), _figure_grid("figure7"),
                          A.render_figure7),
    "figure9": Experiment(_figure_cell("figure9"), _figure_grid("figure9"),
                          A.render_figure9),
    "sendbuf": Experiment(_sendbuf_cell, _sendbuf_grid, A.render_sendbuf),
    "fairness": Experiment(_fairness_cell, _fairness_grid,
                           A.render_fairness),
    "twoway": Experiment(_twoway_cell, _twoway_grid, A.render_twoway),
    "telnet": Experiment(_telnet_cell, _telnet_grid, A.render_telnet),
    "table1bg": Experiment(_table1bg_cell, _table1bg_grid,
                           A.render_table1bg),
    "ablation": Experiment(_ablation_cell, _ablation_grid,
                           A.render_ablation),
    "allvegas": Experiment(_allvegas_cell, _allvegas_grid,
                           A.render_allvegas),
    "arena": Experiment(_arena_cell, _arena_grid, _render_arena),
    "crossover": Experiment(_crossover_cell, _crossover_grid,
                            A.render_crossover),
    # The 500/1,000-conversation cells legitimately run for minutes;
    # their deadline grows with the population.
    "many_flows": Experiment(
        _many_flows_cell,
        budget=lambda params: max(180.0, 1.2 * params.get("flows", 0))),
}



def _sweep() -> List[str]:
    """Every experiment with a grid, runtime registrations last."""
    return [name for name, record in RECORDS.items()
            if record.grid is not None]


#: The paper sweep: the built-in experiments with a grid, in table order.
EXPERIMENTS: Tuple[str, ...] = tuple(_sweep())


def experiment(name: str) -> Experiment:
    """The record of experiment *name*."""
    try:
        return RECORDS[name]
    except KeyError:
        known = ", ".join(RECORDS)
        raise ReproError(
            f"unknown experiment {name!r} (known: {known})") from None


def register_experiment(name: str,
                        run: Callable[..., Dict[str, float]],
                        grid: Optional[Callable[[bool], List[Cell]]] = None,
                        budget: Any = None) -> None:
    """Register an extra experiment at runtime.

    Used by extension code and the supervisor test-suite to add cells
    beyond the paper's grids.  *run* must be a module-level callable
    (cells cross process boundaries); *grid*, when given, appends the
    experiment to :func:`all_cells` sweeps; *budget* is as for
    :class:`Experiment`.  Worker processes see runtime registrations
    only when they are forked from the master, as local workers are.
    """
    if name in RECORDS:
        raise ReproError(f"experiment {name!r} is already registered")
    RECORDS[name] = Experiment(run, grid, budget=budget)


def unregister_experiment(name: str) -> None:
    """Remove a runtime registration (idempotent; built-ins protected)."""
    record = RECORDS.get(name)
    # A built-in's runner is defined in this module.
    if record is not None and record.run.__module__ == __name__:
        raise ReproError(f"cannot unregister built-in experiment {name!r}")
    RECORDS.pop(name, None)


def cell_budget(cell: Cell,
                timeout_s: Optional[float]) -> Optional[float]:
    """Effective supervised deadline for *cell*.

    ``None`` (unsupervised / no deadline) passes through.  Otherwise
    the deadline is the *larger* of the sweep-wide ``timeout_s`` and
    the experiment's declared budget: a budget widens slow experiments
    but can never shrink anyone's deadline.  A budget is checked here,
    at use time, because a callable one only misbehaves once it sees a
    concrete params dict — and the supervisor and dist master call this
    mid-sweep, where a raw ``TypeError`` or a NaN deadline would
    otherwise surface as an opaque crash.
    """
    if timeout_s is None:
        return None
    # The master need not know the experiment: an attached worker may
    # be the only process that preloaded it.
    budget = getattr(RECORDS.get(cell.experiment), "budget", None)
    if callable(budget):
        try:
            budget = budget(cell.as_dict())
        except Exception as exc:
            raise ReproError(
                f"the budget of experiment {cell.experiment!r} raised "
                f"{type(exc).__name__} on cell {cell.key!r}: {exc}") from exc
    if budget is None:
        return timeout_s
    try:
        seconds = float(budget)
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"experiment {cell.experiment!r} declared a non-numeric "
            f"budget {budget!r} for cell {cell.key!r}") from exc
    if math.isnan(seconds) or seconds <= 0:
        raise ReproError(
            f"experiment {cell.experiment!r} declared an invalid "
            f"budget {seconds!r} for cell {cell.key!r} "
            f"(must be a positive number of seconds)")
    return max(timeout_s, seconds)


def cells_for(name: str, quick: bool = False,
              seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    """All cells of one experiment's grid (quick or full variant).

    *seeds* replaces the grid's seed axis: every condition runs once
    per seed (for ``table1``, whose seed is the run index, each is a
    base).  Only the built-in grids have one; a runtime-registered
    grid is ``(quick) -> cells``.
    """
    grid = getattr(RECORDS.get(name), "grid", None)
    if grid is None:
        known = ", ".join(_sweep())
        raise ReproError(
            f"unknown experiment {name!r} (known: {known})")
    return grid(quick) if seeds is None else grid(quick, seeds)


def all_cells(quick: bool = False,
              experiments: Optional[Iterable[str]] = None,
              seeds: Optional[Sequence[int]] = None) -> List[Cell]:
    """The full sweep: every experiment's grid, in table order, each
    on the seed axis *seeds* (see :func:`cells_for`) when given."""
    names = list(experiments) if experiments is not None else _sweep()
    cells: List[Cell] = []
    for name in names:
        cells.extend(cells_for(name, quick=quick, seeds=seeds))
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


@contextmanager
def _one_generation():
    """Run a cell as one young generation of the cyclic collector.

    With the collector off, everything the cell allocates stays in
    generation 0 instead of being promoted towards generation 2 while
    the topology is built; on the way out one ``gc.collect(0)`` frees
    the cell's cycles and leaves everything older untouched.  The
    collector's state is restored whatever the cell did.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.collect(0)
        if enabled:
            gc.enable()


@_one_generation()
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

    A finished cell leaves nothing behind: its simulator is closed
    (:meth:`~repro.sim.engine.Simulator.close`, which keeps the
    counters :func:`~repro.sim.engine.last_simulator` reports) and its
    objects are collected as one young generation on the way out.
    """
    from repro.sim import engine, observers

    runner = experiment(cell.experiment).run
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
    try:
        with observers.armed(**them), gauging:
            metrics = runner(**cell.as_dict())
    finally:
        sim = engine.last_simulator()
        if sim is not None:
            sim.close()
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
