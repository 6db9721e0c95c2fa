"""League-table aggregation over arena cells.

Folds JSON-shaped arena cells (``{"experiment", "params", "metrics"}``
— the harness artifact format, fresh or loaded from disk) into
per-scheme standings, football-league style:

* **duels** decide the table: a duel cell is a *win* for the scheme
  with the higher goodput (within :data:`DRAW_MARGIN` it's a draw),
  worth 2 points, a draw worth 1 — so a scheme that crushes *and* one
  that shares fairly both outscore one that loses;
* **solo** cells contribute the scheme's unopposed throughput, delay
  and retransmit baselines;
* **mix** cells measure citizenship: what the scheme achieves as a
  minority flow, and what it costs the incumbent cross traffic.

:func:`render_league` renders the overall standings plus per-scenario
breakdowns as Markdown, through the same table helper the ``repro
report`` machinery uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.report import markdown_table

#: Relative goodput margin under which a duel is scored as a draw: two
#: schemes within 5% of each other are sharing, not winning.
DRAW_MARGIN = 0.05

#: League points per duel outcome.
WIN_POINTS = 2
DRAW_POINTS = 1

Cells = Sequence[Dict[str, Any]]


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _fmt(value: Optional[float], spec: str = ".1f") -> str:
    return format(value, spec) if value is not None else "-"


@dataclass
class Standing:
    """Accumulated league results for one scheme."""

    scheme: str
    wins: int = 0
    draws: int = 0
    losses: int = 0
    no_contests: int = 0
    duel_throughput: List[float] = field(default_factory=list)
    duel_fairness: List[float] = field(default_factory=list)
    solo_throughput: List[float] = field(default_factory=list)
    solo_rtt_ms: List[float] = field(default_factory=list)
    solo_retransmit_kb: List[float] = field(default_factory=list)
    mix_throughput: List[float] = field(default_factory=list)
    mix_cross_throughput: List[float] = field(default_factory=list)
    mix_fairness: List[float] = field(default_factory=list)
    incomplete: int = 0

    @property
    def duels(self) -> int:
        return self.wins + self.draws + self.losses

    @property
    def points(self) -> int:
        return WIN_POINTS * self.wins + DRAW_POINTS * self.draws

    def sort_key(self):
        # Points lead; mean duel goodput breaks ties; name stabilises.
        return (-self.points, -(_mean(self.duel_throughput) or 0.0),
                self.scheme)


def duel_outcome(a_throughput: float, b_throughput: float,
                 margin: float = DRAW_MARGIN) -> Optional[int]:
    """Score one duel: +1 = ``a`` wins, 0 = draw, -1 = ``b`` wins.

    When *both* goodputs are ≤ 0 (an outage where neither flow moved
    data) there is nothing to share and nothing to win: the duel is a
    no-contest, returned as ``None``, and must not award points.
    """
    best = max(a_throughput, b_throughput)
    if best <= 0:
        return None
    if abs(a_throughput - b_throughput) <= margin * best:
        return 0
    return 1 if a_throughput > b_throughput else -1


def compute_standings(cells: Cells,
                      scenario: Optional[str] = None) -> List[Standing]:
    """Fold arena cells into sorted league standings.

    *scenario*, when given, restricts the table to that scenario's
    cells; non-arena cells are ignored so the aggregator can run over
    a mixed artifact.
    """
    table: Dict[str, Standing] = {}

    def standing(scheme: str) -> Standing:
        return table.setdefault(scheme, Standing(scheme))

    for cell in arena_cells(cells):
        params = cell["params"]
        metrics = cell.get("metrics", {})
        if scenario is not None and params.get("scenario") != scenario:
            continue
        mode = params.get("mode")
        if mode == "solo":
            entry = standing(params["scheme"])
            entry.solo_throughput.append(metrics["throughput_kbps"])
            entry.solo_rtt_ms.append(metrics["rtt_mean_ms"])
            entry.solo_retransmit_kb.append(metrics["retransmit_kb"])
            if not metrics.get("completed", 0.0):
                entry.incomplete += 1
        elif mode == "duel":
            entry_a = standing(params["a"])
            entry_b = standing(params["b"])
            a_rate = metrics["a_throughput_kbps"]
            b_rate = metrics["b_throughput_kbps"]
            outcome = duel_outcome(a_rate, b_rate)
            if outcome is None:
                entry_a.no_contests += 1
                entry_b.no_contests += 1
            elif outcome > 0:
                entry_a.wins += 1
                entry_b.losses += 1
            elif outcome < 0:
                entry_b.wins += 1
                entry_a.losses += 1
            else:
                entry_a.draws += 1
                entry_b.draws += 1
            if outcome is not None:
                entry_a.duel_throughput.append(a_rate)
                entry_b.duel_throughput.append(b_rate)
            fairness = metrics.get("fairness_index")
            if fairness is not None:
                entry_a.duel_fairness.append(fairness)
                entry_b.duel_fairness.append(fairness)
            for side, entry in (("a", entry_a), ("b", entry_b)):
                if not metrics.get(f"{side}_completed", 0.0):
                    entry.incomplete += 1
        elif mode == "mix":
            entry = standing(params["scheme"])
            entry.mix_throughput.append(metrics["subject_throughput_kbps"])
            entry.mix_cross_throughput.append(
                metrics["cross_mean_throughput_kbps"])
            fairness = metrics.get("fairness_index")
            if fairness is not None:
                entry.mix_fairness.append(fairness)
            if not metrics.get("subject_completed", 0.0):
                entry.incomplete += 1
    return sorted(table.values(), key=Standing.sort_key)


def _standings_table(standings: Sequence[Standing]) -> List[str]:
    rows = []
    for rank, entry in enumerate(standings, start=1):
        rows.append([
            rank, entry.scheme, entry.points,
            f"{entry.wins}-{entry.draws}-{entry.losses}",
            entry.no_contests or "",
            _fmt(_mean(entry.duel_fairness), ".3f"),
            _fmt(_mean(entry.solo_throughput)),
            _fmt(_mean(entry.solo_rtt_ms)),
            _fmt(_mean(entry.solo_retransmit_kb)),
            _fmt(_mean(entry.mix_throughput)),
            _fmt(_mean(entry.mix_cross_throughput)),
            _fmt(_mean(entry.mix_fairness), ".3f"),
            entry.incomplete or "",
        ])
    return markdown_table(
        ["#", "scheme", "pts", "W-D-L", "NC", "duel fair", "solo KB/s",
         "solo RTT ms", "solo retx KB", "mix KB/s", "cross KB/s",
         "mix fair", "DNF"], rows)


def arena_cells(cells: Cells) -> List[Dict[str, Any]]:
    """The arena subset of an artifact's cells."""
    return [c for c in cells if c.get("experiment") == "arena"]


def render_league(cells: Cells, title: str = "Arena league") -> str:
    """Markdown league report: overall standings + per-scenario tables."""
    pool = arena_cells(cells)
    lines = [f"# {title}", ""]
    if not pool:
        lines.append("(no arena cells in this artifact)")
        lines.append("")
        return "\n".join(lines)

    scenarios = sorted({c["params"]["scenario"] for c in pool
                        if "scenario" in c.get("params", {})})
    by_mode: Dict[str, int] = {}
    for cell in pool:
        mode = cell["params"].get("mode")
        by_mode[mode] = by_mode.get(mode, 0) + 1
    lines.append(f"- cells: {len(pool)} ("
                 + ", ".join(f"{by_mode[k]} {k}" for k in sorted(by_mode))
                 + ")")
    lines.append(f"- scenarios: {', '.join(scenarios)}")
    lines.append(f"- scoring: win {WIN_POINTS} / draw {DRAW_POINTS} "
                 f"(draw = goodput within {DRAW_MARGIN:.0%}; duels where "
                 f"neither flow moved data are no-contests, NC, no points)")
    lines.append("")
    lines.append("## Overall standings")
    lines.append("")
    lines.extend(_standings_table(compute_standings(pool)))

    for scenario in scenarios:
        lines.append("")
        lines.append(f"## Scenario: {scenario}")
        lines.append("")
        lines.extend(_standings_table(compute_standings(pool,
                                                        scenario=scenario)))
    lines.append("")
    return "\n".join(lines)
