"""Pantheon-style multi-scheme arena.

The paper's §3.2 compares Vegas against the era's alternative
congestion-avoidance schemes (DUAL, CARD, Tri-S); this package turns
that comparison into a tournament over the *whole* scheme registry:

* :mod:`repro.arena.scenarios` — named bottleneck configurations;
* :mod:`repro.arena.cells` — solo / 1v1-duel / mixed-cohabitation
  matchup runners;
* :mod:`repro.arena.matrix` — the parameterized scheme × scenario ×
  seed cell list (:func:`~repro.arena.matrix.generate_matrix`);
* :mod:`repro.arena.league` — throughput/delay/retransmit/fairness
  standings rendered as Markdown league tables;
* :mod:`repro.arena.command` — the ``python -m repro arena`` CLI.
"""

# Re-exports are lazy (PEP 562): the CLI imports this package while
# building its parser, and must not drag the simulator stack in just
# to register the `arena` subcommand.
_EXPORTS = {
    "FlowOutcome": "cells", "arena_duel": "cells", "arena_mix": "cells",
    "arena_solo": "cells", "run_cohort": "cells",
    "Standing": "league", "compute_standings": "league",
    "render_league": "league",
    "MODES": "matrix", "describe_matrix": "matrix",
    "generate_matrix": "matrix",
    "DEFAULT_SCENARIOS": "scenarios", "QUICK_SCENARIOS": "scenarios",
    "TIME_VARYING_SCENARIOS": "scenarios",
    "SCENARIOS": "scenarios", "Scenario": "scenarios",
    "available_scenarios": "scenarios", "get_scenario": "scenarios",
}


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "FlowOutcome",
    "MODES",
    "DEFAULT_SCENARIOS",
    "QUICK_SCENARIOS",
    "TIME_VARYING_SCENARIOS",
    "SCENARIOS",
    "Scenario",
    "Standing",
    "arena_duel",
    "arena_mix",
    "arena_solo",
    "available_scenarios",
    "compute_standings",
    "describe_matrix",
    "generate_matrix",
    "get_scenario",
    "render_league",
    "run_cohort",
]
