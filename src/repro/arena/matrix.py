"""Arena matrix generation: scheme × scenario × seed cell families.

Every arena cell is a cell of the one ``arena`` experiment, its
``mode`` naming the family: solo baselines, round-robin 1v1 duels and
mixed-cohabitation cells.  :func:`matrix_cells` expands a selection;
the ``arena`` record's grids (:mod:`repro.harness.registry`) feed it
the plain names of :mod:`repro.experiments.defaults`, and
:func:`generate_matrix` checks a custom selection against the scheme
and scenario registries first (``examples/arena_matrix.py``).  Only
the check imports the simulator, so enumerating a grid never does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harness.registry import Cell

#: Matchup modes, in generation order.
MODES = ("solo", "duel", "mix")

#: Default cross-traffic scheme and cohort size for mix cells: the
#: deployed-world incumbent the paper measures against.
DEFAULT_CROSS = "reno"
DEFAULT_N_CROSS = 3


def matrix_cells(schemes: Sequence[str], scenarios: Sequence[str],
                 seeds: Sequence[int], modes: Sequence[str] = MODES,
                 cross: str = DEFAULT_CROSS,
                 n_cross: int = DEFAULT_N_CROSS) -> List[Cell]:
    """Expand a selection, unchecked, into ``arena`` cells.

    * ``solo``: every scheme × scenario × seed;
    * ``duel``: every unordered scheme pair (round-robin) × scenario ×
      seed, the pair name-sorted so ``a``/``b`` assignment — and hence
      the cell key — is order-independent;
    * ``mix``: every scheme × scenario × seed cohabiting with
      ``n_cross`` flows of ``cross`` (the cross scheme itself included
      as its own homogeneous control group when selected).
    """
    cells: List[Cell] = []
    for scenario in scenarios:
        if "solo" in modes:
            cells.extend(
                Cell.make("arena", mode="solo", scheme=scheme,
                          scenario=scenario, seed=seed)
                for scheme in schemes for seed in seeds)
        if "duel" in modes:
            for i, first in enumerate(schemes):
                for second in schemes[i + 1:]:
                    a, b = sorted((first, second))
                    cells.extend(
                        Cell.make("arena", mode="duel", a=a, b=b,
                                  scenario=scenario, seed=seed)
                        for seed in seeds)
        if "mix" in modes:
            cells.extend(
                Cell.make("arena", mode="mix", scheme=scheme, cross=cross,
                          n_cross=n_cross, scenario=scenario, seed=seed)
                for scheme in schemes for seed in seeds)
    return cells


def generate_matrix(schemes: Optional[Sequence[str]] = None,
                    scenarios: Optional[Sequence[str]] = None,
                    seeds: int = 2,
                    modes: Sequence[str] = MODES,
                    cross: str = DEFAULT_CROSS,
                    n_cross: int = DEFAULT_N_CROSS) -> List[Cell]:
    """Check a selection and expand it (see :func:`matrix_cells`).

    *schemes* defaults to the whole roster and *scenarios* to every
    default scenario; every name must be registered, none twice.
    ``seeds`` is a count, expanded to ``0..seeds-1``.
    """
    from repro.arena.scenarios import DEFAULT_SCENARIOS, get_scenario
    from repro.core.registry import arena_roster, cc_factory

    scheme_names = list(arena_roster() if schemes is None else schemes)
    scenario_names = list(DEFAULT_SCENARIOS if scenarios is None
                          else scenarios)
    for kind, names, lookup in (("scheme", scheme_names, cc_factory),
                                ("scenario", scenario_names, get_scenario)):
        if not names:
            raise ConfigurationError(f"arena needs at least one {kind}")
        for name in names:
            lookup(name)  # raises ConfigurationError on unknown names
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate {kind} in selection: {names}")
    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    unknown = [m for m in modes if m not in MODES]
    if unknown:
        raise ConfigurationError(
            f"unknown arena mode(s) {unknown}; known: {list(MODES)}")
    if "mix" in modes:
        cc_factory(cross)
        if n_cross < 1:
            raise ConfigurationError(f"n_cross must be >= 1, got {n_cross}")
    return matrix_cells(scheme_names, scenario_names, range(seeds), modes,
                        cross, n_cross)
