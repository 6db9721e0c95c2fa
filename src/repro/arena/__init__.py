"""Pantheon-style multi-scheme arena.

The paper's §3.2 compares Vegas against the era's alternative
congestion-avoidance schemes (DUAL, CARD, Tri-S); this package turns
that comparison into a tournament over the *whole* scheme registry:

* :mod:`repro.arena.scenarios` — named bottleneck configurations;
* :mod:`repro.arena.cells` — solo / 1v1-duel / mixed-cohabitation
  matchup runners;
* :mod:`repro.arena.matrix` — the scheme × scenario × seed cell list
  (:func:`~repro.arena.matrix.generate_matrix` for a custom selection);
* :mod:`repro.arena.league` — throughput/delay/retransmit/fairness
  standings rendered as Markdown league tables;
* :mod:`repro.arena.command` — the ``python -m repro traces`` CLI.

The tournament is the ``arena`` experiment of the harness registry:
``python -m repro run-all --experiments arena [--quick] [--seeds N]``
runs, caches, gates and renders it like every paper artifact.
"""

from repro import _lazy_exports

# Re-exports are lazy (PEP 562): the CLI imports this package while
# building its parser, and the harness enumerates the arena grid from
# it, so neither may drag the simulator stack in.
_EXPORTS = {
    **dict.fromkeys(("arena_duel", "arena_mix", "arena_solo", "run_cohort"),
                    "repro.arena.cells"),
    **dict.fromkeys(("Standing", "compute_standings", "render_league"),
                    "repro.arena.league"),
    **dict.fromkeys(("MODES", "generate_matrix"), "repro.arena.matrix"),
    **dict.fromkeys(("DEFAULT_SCENARIOS", "TIME_VARYING_SCENARIOS", "SCENARIOS",
                     "Scenario", "available_scenarios", "get_scenario"),
                    "repro.arena.scenarios"),
}

__all__ = [
    "MODES",
    "DEFAULT_SCENARIOS",
    "TIME_VARYING_SCENARIOS",
    "SCENARIOS",
    "Scenario",
    "Standing",
    "arena_duel",
    "arena_mix",
    "arena_solo",
    "available_scenarios",
    "compute_standings",
    "generate_matrix",
    "get_scenario",
    "render_league",
    "run_cohort",
]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
