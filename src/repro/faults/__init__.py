"""Seeded fault injection (see TESTING.md).

Compose a fault plan onto any topology::

    from repro.faults import FaultPlan, injecting

    with injecting(FaultPlan(drop=0.01, seed=3)) as session:
        run_experiment()          # channels self-attach injectors
    print(session.totals())

(the session is armed under the ``faults`` role of
:mod:`repro.sim.observers`, like every other instrument), or through
the harness/CLI: ``run_cell(cell, faults="light")`` /
``python -m repro run-all --faults drop=0.01,seed=3``.
"""

from repro.faults.injector import ChannelFaults, FaultSession, injecting
from repro.faults.plan import PROFILES, FaultPlan

__all__ = [
    "PROFILES",
    "ChannelFaults",
    "FaultPlan",
    "FaultSession",
    "injecting",
]
