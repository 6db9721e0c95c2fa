"""The search loop, the ``repro-search/v1`` artifact, the leaderboard.

:func:`run_search` is ask/evaluate/tell around the supervised harness:
every candidate point maps to registered cells
(:meth:`~repro.search.objectives.Objective.cells_for`) which run
through :meth:`repro.harness.options.SweepOptions.run` — so the
content-hash cache, per-cell timeouts/retries/quarantine, telemetry, and the
distributed backend all work unchanged.  Cell results are memoized by
key for the lifetime of the search, so a strategy revisiting a point
(genetic convergence does this constantly) costs nothing even with the
disk cache off.

Artifacts: the aggregate :class:`~repro.harness.runner.RunReport` of
every unique cell feeds the standard harness document (``--json``,
gateable with ``repro check``); the search-level story — points,
fitnesses, ranking — is written as a separate ``repro-search/v1``
document plus a Markdown leaderboard rendered through
:func:`repro.obs.report.markdown_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.harness.artifacts import load_json
from repro.harness.options import SweepOptions
from repro.harness.registry import Cell
from repro.harness.runner import RunReport
from repro.obs.report import markdown_table
from repro.search.objectives import Objective
from repro.search.space import Point
from repro.search.strategies import make_strategy

SEARCH_SCHEMA = "repro-search/v1"

#: Hard cap on consecutive ask() rounds that propose nothing runnable —
#: guards the loop against a strategy that stalls below budget.
MAX_IDLE_ROUNDS = 3


@dataclass
class Evaluation:
    """One scored point: index in evaluation order, cells, fitness."""

    index: int
    point: Point
    cells: List[str]
    fitness: Optional[float]       # objective-native direction; None=failed

    @property
    def failed(self) -> bool:
        return self.fitness is None


@dataclass
class SearchOutcome:
    """Everything one search run produced."""

    objective: Objective
    strategy: str
    budget: int
    seed: int
    evaluations: List[Evaluation] = field(default_factory=list)
    report: RunReport = field(default_factory=RunReport)

    def ranked(self) -> List[Evaluation]:
        """Successful evaluations, best first, deduped by point.

        Ties break on evaluation index, so the ranking is reproducible
        run to run; duplicate points (a converged genetic pool) keep
        their first appearance only.
        """
        sign = 1.0 if self.objective.direction == "max" else -1.0
        seen = set()
        unique = []
        for ev in sorted((e for e in self.evaluations if not e.failed),
                         key=lambda e: (-sign * e.fitness, e.index)):
            key = tuple(sorted(ev.point.items()))
            if key not in seen:
                seen.add(key)
                unique.append(ev)
        return unique

    @property
    def best(self) -> Optional[Evaluation]:
        ranked = self.ranked()
        return ranked[0] if ranked else None


def run_search(objective: Objective, strategy: str = "random",
               budget: int = 20, seed: int = 0, *,
               opts: SweepOptions = SweepOptions(),
               progress: Optional[Callable[[str], None]] = None,
               ) -> SearchOutcome:
    """Search *objective*'s space for *budget* evaluations.

    Every round of cells runs as one sweep under *opts*.
    """
    if budget < 1:
        raise ReproError(f"search budget must be >= 1, got {budget}")
    strat = make_strategy(strategy, objective.space, seed)
    sign = 1.0 if objective.direction == "max" else -1.0
    outcome = SearchOutcome(objective=objective, strategy=strategy,
                            budget=budget, seed=seed)
    report = outcome.report
    report.backend = opts.backend
    results_by_key: Dict[str, Any] = {}
    failed_keys = set()
    idle_rounds = 0

    while len(outcome.evaluations) < budget:
        batch = strat.ask()[:budget - len(outcome.evaluations)]
        if not batch:
            idle_rounds += 1
            if idle_rounds >= MAX_IDLE_ROUNDS:
                break
            continue
        idle_rounds = 0

        pending: List[Cell] = []
        queued = set()
        for point in batch:
            for cell in objective.cells_for(point):
                if (cell.key not in results_by_key
                        and cell.key not in failed_keys
                        and cell.key not in queued):
                    queued.add(cell.key)
                    pending.append(cell)
        if pending:
            round_report = opts.run(pending, progress)
            for result in round_report.results:
                results_by_key[result.key] = result
            for failure in round_report.failures:
                failed_keys.add(failure.key)
            report.results.extend(round_report.results)
            report.failures.extend(round_report.failures)
            report.cache_hits += round_report.cache_hits
            report.cache_misses += round_report.cache_misses
            report.jobs = round_report.jobs
            report.elapsed_s += round_report.elapsed_s
            if round_report.interrupted:
                report.interrupted = True

        scored = _score_batch(objective, batch, results_by_key, outcome)
        strat.tell([(ev.point,
                     None if ev.fitness is None else sign * ev.fitness)
                    for ev in scored])
        if report.interrupted:
            break

    report.results.sort(key=lambda result: result.key)
    return outcome


def _score_batch(objective: Objective, batch: List[Point],
                 results_by_key: Dict[str, Any],
                 outcome: SearchOutcome) -> List[Evaluation]:
    scored = []
    for point in batch:
        cells = objective.cells_for(point)
        keys = [cell.key for cell in cells]
        fitness = None
        if all(key in results_by_key for key in keys):
            fitness = objective.score(
                point, {key: results_by_key[key].metrics for key in keys})
        evaluation = Evaluation(index=len(outcome.evaluations),
                                point=dict(point), cells=keys,
                                fitness=fitness)
        outcome.evaluations.append(evaluation)
        scored.append(evaluation)
    return scored


# ----------------------------------------------------------------------
# The search preview: the deterministic cell list a random-strategy
# prefix of a search would evaluate, materialized without running the
# loop.
# ----------------------------------------------------------------------

def family_preview_cells(objective_name: str, count: int = 4,
                         seed: int = 0, quick: bool = False) -> List[Cell]:
    """First *count* random points' cells, deduped, in draw order."""
    from repro.search.objectives import get_objective

    if count < 1:
        raise ReproError(f"search family count must be >= 1, got {count}")
    objective = get_objective(objective_name, quick=quick)
    strat = make_strategy("random", objective.space, seed)
    cells: List[Cell] = []
    seen = set()
    points: List[Point] = []
    while len(points) < count:
        points.extend(strat.ask())
    for point in points[:count]:
        for cell in objective.cells_for(point):
            if cell.key not in seen:
                seen.add(cell.key)
                cells.append(cell)
    return cells


# ----------------------------------------------------------------------
# Artifact
# ----------------------------------------------------------------------

def build_search_document(outcome: SearchOutcome, top: int = 10,
                          src_hash: Optional[str] = None) -> Dict[str, Any]:
    """The JSON-shaped ``repro-search/v1`` document."""
    report = outcome.report

    def entry(ev: Evaluation) -> Dict[str, Any]:
        return {"index": ev.index, "point": dict(ev.point),
                "cells": list(ev.cells), "fitness": ev.fitness}

    ranked = outcome.ranked()
    doc: Dict[str, Any] = {
        "schema_version": SEARCH_SCHEMA,
        "objective": {"name": outcome.objective.name,
                      "direction": outcome.objective.direction,
                      "description": outcome.objective.description},
        "strategy": outcome.strategy,
        "budget": outcome.budget,
        "seed": outcome.seed,
        "space": outcome.objective.space.describe(),
        "run": {
            "evaluations": len(outcome.evaluations),
            "failed_evaluations": sum(1 for e in outcome.evaluations
                                      if e.failed),
            "unique_cells": len({k for e in outcome.evaluations
                                 for k in e.cells}),
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "quarantined": len(report.failures),
            "elapsed_s": round(report.elapsed_s, 3),
            "backend": report.backend,
            "interrupted": report.interrupted,
        },
        "evaluations": [entry(ev) for ev in outcome.evaluations],
        "best": entry(ranked[0]) if ranked else None,
        "leaderboard": [entry(ev) for ev in ranked[:top]],
    }
    if src_hash:
        doc["src_hash"] = src_hash
    return doc


def load_search_document(path: str) -> Dict[str, Any]:
    """Read and schema-check a search artifact."""
    return load_json(path, "search artifact", SEARCH_SCHEMA)


# ----------------------------------------------------------------------
# Leaderboard
# ----------------------------------------------------------------------

def _point_label(point: Point) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(point.items()))


def render_leaderboard(outcome: SearchOutcome, top: int = 10) -> str:
    """Markdown leaderboard of the top-*top* scored points."""
    objective = outcome.objective
    report = outcome.report
    ranked = outcome.ranked()[:top]
    failed = sum(1 for e in outcome.evaluations if e.failed)
    lines = [f"# Search leaderboard — {objective.name}", ""]
    lines.append(f"- objective: {objective.description} "
                 f"(**{objective.direction}imize**)")
    lines.append(f"- strategy: **{outcome.strategy}**, "
                 f"budget {outcome.budget}, seed {outcome.seed}")
    lines.append(f"- evaluations: {len(outcome.evaluations)} "
                 f"({failed} failed), "
                 f"cache: {report.cache_hits} hits / "
                 f"{report.cache_misses} misses")
    if report.failures:
        lines.append(f"- quarantined cells: {len(report.failures)}")
    lines.append("")
    if not ranked:
        lines.append("(no successful evaluations)")
        lines.append("")
        return "\n".join(lines)
    lines.extend(markdown_table(
        ["#", "fitness", "eval", "point"],
        [[rank, f"{ev.fitness:.3f}", ev.index, _point_label(ev.point)]
         for rank, ev in enumerate(ranked, start=1)]))
    lines.append("")
    return "\n".join(lines)
