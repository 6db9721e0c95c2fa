"""Black-box scenario search over the harness (``repro search``).

Treats one (or a few) harness cell evaluations as a seeded fitness
function and searches topology/scenario/scheme parameter space for
interesting regimes: scenarios where Vegas loses to Reno
(``vegas_regret``), fairness collapses (``fairness_cliff``), or the
simulator best matches the paper's published tables
(``table_calibrate``).

The subsystem splits the way the harness does:

* :mod:`repro.search.space` — frozen, hashable parameter spaces with
  uniform / log-uniform / integer / choice dimensions;
* :mod:`repro.search.strategies` — pluggable ask/tell strategies
  (seeded random, coordinate grid-refine, steady-state genetic), all
  deterministic given their seed;
* :mod:`repro.search.objectives` — the built-in objectives: each maps a
  point to registered cells and scores the resulting metrics;
* :mod:`repro.search.cells` — the ``search_cohort`` cell runner that
  executes a parameterized arena cohort;
* :mod:`repro.search.driver` — the loop: ask a batch, run the cells
  through :func:`repro.harness.runner.run_cells` (content-hash cache
  and ``--bind`` work unchanged), score, tell; plus the
  ``repro-search/v1`` artifact and the Markdown leaderboard;
* :mod:`repro.search.command` — ``python -m repro search``.
"""

from repro.search.objectives import OBJECTIVES, get_objective
from repro.search.space import Dimension, SearchSpace
from repro.search.strategies import STRATEGIES, make_strategy

__all__ = [
    "Dimension",
    "SearchSpace",
    "STRATEGIES",
    "make_strategy",
    "OBJECTIVES",
    "get_objective",
]
