"""Shared helpers: paths, order statistics, host-noise spin, spans."""

from __future__ import annotations

import heapq
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Engine behaviour toggles the benchmark refuses to run under: a
#: number measured on the slow path or with idle suppression is not a
#: number about the engine users get.
FORBIDDEN_ENV = ("REPRO_ENGINE_SLOWPATH", "REPRO_IDLE_SUPPRESS")
FORBIDDEN_ENV_PREFIX = "REPRO_WHEEL_"

#: A set whose spin IQR/median exceeds this is labelled ``noisy``.
NOISY_SPIN_IQR = 0.15


def forbidden_env() -> List[str]:
    """Names of set environment variables that change engine behaviour."""
    return sorted(name for name in os.environ
                  if name in FORBIDDEN_ENV
                  or name.startswith(FORBIDDEN_ENV_PREFIX))


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def calm(values: Sequence[float]) -> float:
    """The timing a twentieth of the way up the sorted *values*.

    The sizing host has two speeds and flips between them every few
    tens of milliseconds (one fixed spin reads 35 ms or 50 ms, one warm
    pass 1.6 ms or 2.8 ms), so a run's median says what share of the
    run the host spent slow, not how fast the code is.  Interference
    only ever adds time: the low end of the samples is the code on a
    calm host and repeats from run to run.  A twentieth, not the
    minimum, so that no single sample decides; with fewer than twenty
    samples it is the minimum.
    """
    return sorted(values)[len(values) // 20]


def iqr_ratio(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread statistic the driver gates on."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """Highest percentile with at least ten samples beyond it.

    ``None`` when fewer than twenty samples exist: no percentile above
    the median has ten samples beyond it, so none is reported.
    """
    n = len(values)
    if n < 20:
        return None
    pct = math.floor((1.0 - 10.0 / n) * 100.0)
    ordered = sorted(values)
    return {"percentile": pct, "value": ordered[n - 11]}


def timing_summary(values: Sequence[float]) -> Dict[str, Any]:
    """Calm value, median, sample count and tail percentile of a series."""
    return {"calm": calm(values), "median": median(values),
            "n": len(values), "tail": tail(values)}


def spin_ms() -> float:
    """One fixed 60k-item heapq spin; wall milliseconds.

    The work never changes, so its run-to-run spread is the host's, not
    the repo's: a reader can tell a bad host from a regression.
    """
    start = time.perf_counter()
    heap: List[int] = []
    x = 12345
    for _ in range(60000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, x)
    while heap:
        heapq.heappop(heap)
    return (time.perf_counter() - start) * 1e3


def host_record(spins: Sequence[float]) -> Dict[str, Any]:
    """The host-noise block of a run's metadata."""
    ratio = iqr_ratio(spins)
    return {
        "host.spin_ms_median": median(spins) if spins else None,
        "host.spin_iqr_ratio": ratio,
        "host.spin_n": len(spins),
        "noisy": ratio > NOISY_SPIN_IQR,
    }


class Spans:
    """In-memory span recorder, written out when the run ends.

    Spans are recorded from the benchmark's own files around its calls
    into each layer: ``name``, ``start``/``end`` (``perf_counter``
    seconds), ``parent`` (the enclosing span's id) and ``round`` (one id
    shared by every span of a round).
    """

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._round = 0

    def new_round(self) -> int:
        self._round += 1
        return self._round

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Dict[str, Any]]:
        row = {"id": len(self.rows), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "round": self._round, "start": time.perf_counter(),
               "end": None, **fields}
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path, ledger: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.rows, "ledger": ledger}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
