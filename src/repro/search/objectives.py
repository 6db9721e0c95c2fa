"""Built-in search objectives.

An :class:`Objective` binds together the three things a search needs:
a :class:`~repro.search.space.SearchSpace` to draw points from, a
mapping from a point to registered harness cells, and a scorer that
folds the cells' metrics into one fitness number.  Scores are reported
in the objective's native direction (``max`` or ``min``); the driver
sign-flips for strategies, which always maximize.

* ``vegas_regret`` — maximize Reno−Vegas goodput in a head-to-head
  duel: finds the adversarial scenarios where the paper's headline
  claim inverts.
* ``fairness_cliff`` — minimize the Jain index of a homogeneous
  cohort: finds regimes where same-scheme flows starve each other.
* ``table_calibrate`` — minimize the L2 distance between measured
  Vegas/Reno throughput+retransmit ratios and the paper's Table 2
  targets: finds the bottleneck that best reproduces the published
  numbers.

A scorer returns ``None`` when its cells were quarantined (or the
score is undefined); the driver records the evaluation as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.harness.registry import Cell
from repro.search.space import Dimension, Point, SearchSpace

Metrics = Dict[str, Dict[str, float]]


@dataclass(frozen=True)
class Objective:
    """One search objective: space + point→cells mapping + scorer."""

    name: str
    direction: str                 # "max" or "min"
    description: str
    space: SearchSpace
    builder: Callable[[Point], List[Cell]]
    scorer: Callable[[Point, Metrics], Optional[float]]

    def cells_for(self, point: Point) -> List[Cell]:
        """The registered cells one evaluation of *point* runs."""
        return self.builder(point)

    def score(self, point: Point, metrics: Metrics) -> Optional[float]:
        """Fitness in the objective's native direction, or ``None``."""
        return self.scorer(point, metrics)


def _bottleneck_cell(point: Point, schemes: str) -> Cell:
    return Cell.make("search_cohort", schemes=schemes,
                     bw_kbps=point["bw_kbps"], delay_ms=point["delay_ms"],
                     buffers=point["buffers"], size_kb=point["size_kb"],
                     loss=point["loss"], seed=point["seed"])


# ----------------------------------------------------------------------
# vegas_regret
# ----------------------------------------------------------------------

def _vegas_regret_space(quick: bool) -> SearchSpace:
    return SearchSpace.of(
        Dimension.log_uniform("bw_kbps", 50.0, 1000.0),
        Dimension.log_uniform("delay_ms", 2.0, 150.0),
        Dimension.integer("buffers", 2, 50),
        Dimension.choice("size_kb", *((48, 64) if quick
                                      else (128, 300, 600))),
        Dimension.choice("loss", 0.0, 0.01),
        Dimension.integer("seed", 0, 3),
    )


def _vegas_regret_cells(point: Point) -> List[Cell]:
    return [_bottleneck_cell(point, "reno+vegas")]


def _vegas_regret_score(point: Point, metrics: Metrics) -> Optional[float]:
    (m,) = metrics.values()
    return m["f0_throughput_kbps"] - m["f1_throughput_kbps"]


# ----------------------------------------------------------------------
# fairness_cliff
# ----------------------------------------------------------------------

def _fairness_cliff_space(quick: bool) -> SearchSpace:
    return SearchSpace.of(
        Dimension.choice("scheme", "vegas", "reno"),
        Dimension.integer("flows", 2, 3 if quick else 6),
        Dimension.log_uniform("bw_kbps", 50.0, 800.0),
        Dimension.log_uniform("delay_ms", 2.0, 100.0),
        Dimension.integer("buffers", 2, 40),
        Dimension.choice("size_kb", *((48,) if quick else (128, 300))),
        Dimension.choice("loss", 0.0, 0.01),
        Dimension.integer("seed", 0, 3),
    )


def _fairness_cliff_cells(point: Point) -> List[Cell]:
    schemes = "+".join([point["scheme"]] * point["flows"])
    return [_bottleneck_cell(point, schemes)]


def _fairness_cliff_score(point: Point, metrics: Metrics) -> Optional[float]:
    (m,) = metrics.values()
    return m["fairness_index"]


# ----------------------------------------------------------------------
# table_calibrate
# ----------------------------------------------------------------------

#: Paper Table 2 targets, expressed as Vegas/Reno ratios so the
#: calibration is scale-free (the table's absolute numbers depend on
#: the tcplib background mix, which a 2-flow cohort cannot reproduce).
def _table2_targets() -> Dict[str, float]:
    from repro.experiments.defaults import PAPER_TABLE2

    throughput = PAPER_TABLE2["Throughput (KB/s)"]
    retransmit = PAPER_TABLE2["Retransmissions (KB)"]
    return {
        "throughput_ratio": throughput["vegas-1,3"] / throughput["reno"],
        "retransmit_ratio": retransmit["vegas-1,3"] / retransmit["reno"],
    }


def _table_calibrate_space(quick: bool) -> SearchSpace:
    return SearchSpace.of(
        Dimension.log_uniform("bw_kbps", 100.0, 400.0),
        Dimension.log_uniform("delay_ms", 20.0, 80.0),
        Dimension.integer("buffers", 5, 30),
        Dimension.choice("size_kb", *((64,) if quick else (300, 600))),
        Dimension.choice("loss", 0.0),
        Dimension.integer("seed", 0, 2),
    )


def _table_calibrate_cells(point: Point) -> List[Cell]:
    return [_bottleneck_cell(point, "reno+reno"),
            _bottleneck_cell(point, "vegas+vegas")]


def _cohort_means(metrics: Dict[str, float]) -> Dict[str, float]:
    flows = int(metrics["flows"])
    return {
        "throughput": sum(metrics[f"f{i}_throughput_kbps"]
                          for i in range(flows)) / flows,
        "retransmit": sum(metrics[f"f{i}_retransmit_kb"]
                          for i in range(flows)) / flows,
    }


def _table_calibrate_score(point: Point,
                           metrics: Metrics) -> Optional[float]:
    reno_key = next(k for k in metrics if "schemes=reno" in k)
    vegas_key = next(k for k in metrics if "schemes=vegas" in k)
    reno = _cohort_means(metrics[reno_key])
    vegas = _cohort_means(metrics[vegas_key])
    if reno["throughput"] <= 0:
        return None  # ratio undefined — not a usable calibration point
    targets = _table2_targets()
    thr_err = (vegas["throughput"] / reno["throughput"]
               - targets["throughput_ratio"])
    # +1 KB regularizer: lossless corners (zero Reno retransmissions)
    # stay scoreable instead of failing the point, and still land far
    # from the paper's 0.49 target unless Vegas also retransmits less.
    retx_err = ((vegas["retransmit"] + 1.0) / (reno["retransmit"] + 1.0)
                - targets["retransmit_ratio"])
    return math.sqrt(thr_err * thr_err + retx_err * retx_err)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_OBJECTIVES: Dict[str, Dict[str, Any]] = {
    "vegas_regret": {
        "direction": "max",
        "description": "maximize Reno minus Vegas goodput (KB/s) in a "
                       "head-to-head duel — adversarial scenarios where "
                       "the paper's claim inverts",
        "space": _vegas_regret_space,
        "builder": _vegas_regret_cells,
        "scorer": _vegas_regret_score,
    },
    "fairness_cliff": {
        "direction": "min",
        "description": "minimize the Jain fairness index of a "
                       "homogeneous cohort — regimes where same-scheme "
                       "flows starve each other",
        "space": _fairness_cliff_space,
        "builder": _fairness_cliff_cells,
        "scorer": _fairness_cliff_score,
    },
    "table_calibrate": {
        "direction": "min",
        "description": "minimize L2 distance between measured "
                       "Vegas/Reno throughput+retransmit ratios and the "
                       "paper's Table 2 targets",
        "space": _table_calibrate_space,
        "builder": _table_calibrate_cells,
        "scorer": _table_calibrate_score,
    },
}

#: Sorted objective names (the CLI's --objective choices).
OBJECTIVES = tuple(sorted(_OBJECTIVES))


def get_objective(name: str, quick: bool = False) -> Objective:
    """Look up a built-in objective (``quick`` shrinks its space)."""
    try:
        spec = _OBJECTIVES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown search objective {name!r} "
            f"(available: {list(OBJECTIVES)})") from None
    return Objective(name=name, direction=spec["direction"],
                     description=spec["description"],
                     space=spec["space"](quick),
                     builder=spec["builder"], scorer=spec["scorer"])
