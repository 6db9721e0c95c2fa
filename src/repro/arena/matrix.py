"""Arena matrix generation: scheme × scenario × seed cell families.

Unlike the paper experiments' fixed quick/full grids, the arena's grid
is *parameterized*: callers select schemes, scenarios, seed counts and
matchup modes, and the generator expands the product into harness
:class:`~repro.harness.registry.Cell`\\ s — solo baselines, round-robin
1v1 duels, and mixed-cohabitation cells.  Their runners are records
of the harness registry, so the supervised runner, content-hash cache
and quarantine machinery apply unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.arena.scenarios import (
    DEFAULT_SCENARIOS,
    QUICK_SCENARIOS,
    get_scenario,
)
from repro.core.registry import arena_roster, cc_factory
from repro.errors import ConfigurationError
from repro.harness.registry import Cell

#: Matchup modes, in generation order.
MODES = ("solo", "duel", "mix")

#: The ``--quick`` scheme trio: the paper's protagonists plus the
#: oldest baseline, spanning the delay/loss signal split.
QUICK_SCHEMES = ("vegas", "reno", "tahoe")

#: Default cross-traffic scheme and cohort size for mix cells: the
#: deployed-world incumbent the paper measures against.
DEFAULT_CROSS = "reno"
DEFAULT_N_CROSS = 3


def _split_csv(value: str) -> List[str]:
    return [token.strip() for token in value.split(",") if token.strip()]


def resolve_schemes(schemes: Optional[object],
                    quick: bool = False) -> List[str]:
    """Normalise a scheme selection to a validated name list.

    Accepts ``None`` (the quick trio or the full roster), the string
    ``"all"`` (full roster), a comma-separated string, or an iterable
    of names.  Every name must be constructible via the registry.
    Note the comma split: parameter variants whose *names* contain a
    comma ("vegas-1,3") must be selected programmatically.
    """
    if schemes is None:
        names = list(QUICK_SCHEMES) if quick else arena_roster()
    elif isinstance(schemes, str):
        names = arena_roster() if schemes == "all" else _split_csv(schemes)
    else:
        names = list(schemes)
    if not names:
        raise ConfigurationError("arena needs at least one scheme")
    for name in names:
        cc_factory(name)  # raises ConfigurationError on unknown names
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scheme in selection: {names}")
    return names


def resolve_scenarios(scenarios: Optional[object],
                      quick: bool = False) -> List[str]:
    """Normalise a scenario selection (same shapes as schemes)."""
    if scenarios is None:
        names = list(QUICK_SCENARIOS if quick else DEFAULT_SCENARIOS)
    elif isinstance(scenarios, str):
        names = (list(DEFAULT_SCENARIOS) if scenarios == "all"
                 else _split_csv(scenarios))
    else:
        names = list(scenarios)
    if not names:
        raise ConfigurationError("arena needs at least one scenario")
    for name in names:
        get_scenario(name)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scenario in selection: {names}")
    return names


def generate_matrix(schemes: Optional[object] = None,
                    scenarios: Optional[object] = None,
                    seeds: int = 2,
                    modes: Sequence[str] = MODES,
                    cross: str = DEFAULT_CROSS,
                    n_cross: int = DEFAULT_N_CROSS,
                    quick: bool = False) -> List[Cell]:
    """Expand a selection into the arena's cell list.

    * ``solo``: every scheme × scenario × seed;
    * ``duel``: every unordered scheme pair (round-robin) × scenario ×
      seed, the pair name-sorted so ``a``/``b`` assignment — and hence
      the cell key — is order-independent;
    * ``mix``: every scheme × scenario × seed cohabiting with
      ``n_cross`` flows of ``cross`` (the cross scheme itself included
      as its own homogeneous control group when selected).

    ``seeds`` is a count, expanded to ``0..seeds-1``: arena seeds are
    dense by construction so CI matrices stay describable as "N seeds".
    """
    scheme_names = resolve_schemes(schemes, quick=quick)
    scenario_names = resolve_scenarios(scenarios, quick=quick)
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

    cells: List[Cell] = []
    seed_range = range(seeds)
    for scenario in scenario_names:
        if "solo" in modes:
            cells.extend(
                Cell.make("arena_solo", scheme=scheme, scenario=scenario,
                          seed=seed)
                for scheme in scheme_names for seed in seed_range)
        if "duel" in modes:
            for i, first in enumerate(scheme_names):
                for second in scheme_names[i + 1:]:
                    a, b = sorted((first, second))
                    cells.extend(
                        Cell.make("arena_duel", a=a, b=b, scenario=scenario,
                                  seed=seed)
                        for seed in seed_range)
        if "mix" in modes:
            cells.extend(
                Cell.make("arena_mix", scheme=scheme, cross=cross,
                          n_cross=n_cross, scenario=scenario, seed=seed)
                for scheme in scheme_names for seed in seed_range)
    return cells


def describe_matrix(cells: Iterable[Cell]) -> str:
    """One-line shape summary ("12 solo + 12 duel + 12 mix = 36 cells")."""
    counts: Dict[str, int] = {}
    for cell in cells:
        counts[cell.experiment] = counts.get(cell.experiment, 0) + 1
    total = sum(counts.values())
    parts = [f"{counts[f'arena_{mode}']} {mode}"
             for mode in MODES if f"arena_{mode}" in counts]
    return " + ".join(parts) + f" = {total} cells" if parts else "0 cells"
