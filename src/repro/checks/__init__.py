"""Runtime invariant checking (see TESTING.md).

Activate a checker for a block of code with::

    from repro.checks import checking

    with checking() as chk:
        run_experiment()          # components self-register
    assert not chk.violations

or through the harness/CLI: ``run_cell(cell, checks="raise")`` /
``python -m repro.cli run-all --checks``.
"""

from repro.checks.checker import InvariantChecker, checking

__all__ = [
    "InvariantChecker",
    "checking",
]
