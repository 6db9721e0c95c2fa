"""Run aggregation and paper-style table formatting.

The paper's tables report means over many runs (Table 1: 12 runs,
Table 2: 57 runs, ...), each column a protocol, each row a metric
(throughput, throughput ratio, retransmissions, retransmit ratio,
coarse timeouts).  :class:`RunAggregate` collects per-run numbers and
:func:`format_table` renders the familiar layout, so a table can be
compared with the paper side by side.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class RunAggregate:
    """Accumulates one metric's samples across runs."""

    samples: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return statistics.fmean(self.samples)

    @property
    def stdev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return statistics.stdev(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)


class MetricTable:
    """A (metric row) x (protocol column) table of run aggregates."""

    def __init__(self, columns: Sequence[str]):
        self.columns = list(columns)
        self._cells: Dict[str, Dict[str, RunAggregate]] = {}
        self._row_order: List[str] = []

    def add_sample(self, row: str, column: str, value: float) -> None:
        if column not in self.columns:
            raise KeyError(f"unknown column {column!r}")
        if row not in self._cells:
            self._cells[row] = {c: RunAggregate() for c in self.columns}
            self._row_order.append(row)
        self._cells[row][column].add(value)

    def mean(self, row: str, column: str) -> float:
        return self._cells[row][column].mean

    def ratio_row(self, row: str, reference_column: str) -> Dict[str, float]:
        """Each column's mean divided by the reference column's mean."""
        ref = self.mean(row, reference_column)
        out = {}
        for column in self.columns:
            value = self.mean(row, column)
            out[column] = value / ref if ref else 0.0
        return out

    def rows(self) -> List[str]:
        return list(self._row_order)


def format_table(title: str, table: MetricTable,
                 ratios_for: Optional[Dict[str, str]] = None,
                 paper: Optional[Dict[str, Dict[str, float]]] = None,
                 precision: int = 2) -> str:
    """Render *table* in the paper's layout.

    Args:
        ratios_for: mapping of metric row -> reference column; for each
            entry an extra "<row> ratio" line is printed, like the
            paper's "Throughput Ratio" rows.
        paper: optional mapping row -> column -> the value printed in
            the paper, shown alongside for comparison.
    """
    width = max(18, *(len(c) + 2 for c in table.columns))
    lines = [title, "-" * len(title)]
    header = f"{'':32}" + "".join(f"{c:>{width}}" for c in table.columns)
    lines.append(header)
    for row in table.rows():
        cells = "".join(f"{table.mean(row, c):>{width}.{precision}f}"
                        for c in table.columns)
        lines.append(f"{row:<32}" + cells)
        if paper and row in paper:
            ref = "".join(
                f"{paper[row].get(c, float('nan')):>{width}.{precision}f}"
                for c in table.columns)
            lines.append(f"{'  (paper)':<32}" + ref)
        if ratios_for and row in ratios_for:
            ratios = table.ratio_row(row, ratios_for[row])
            cells = "".join(f"{ratios[c]:>{width}.2f}" for c in table.columns)
            lines.append(f"{row + ' ratio':<32}" + cells)
    return "\n".join(lines)
