"""Experiment drivers reproducing every table and figure of the paper.

Each module runs *one* simulation of its artifact; the grids over
those runs are cells of :mod:`repro.harness.registry` (values from
:mod:`repro.experiments.defaults`), rendered by
:mod:`repro.harness.aggregate` for ``run-all``.

| Paper artifact | Module |
|---|---|
| Figure 5 network | :mod:`repro.experiments.figure5` |
| Figures 1, 6, 7, 9 | :mod:`repro.experiments.traces` |
| Table 1 (+ §4.3 variant) | :mod:`repro.experiments.one_on_one` |
| Tables 2, 3, §4.3 two-way traffic | :mod:`repro.experiments.background` |
| §6 TELNET response time, all-Vegas world | :func:`repro.experiments.background.run_world` |
| Tables 4, 5 | :mod:`repro.experiments.internet` |
| §4.3 send-buffer sweep | :mod:`repro.experiments.transfers` (``sndbuf=``) |
| §4.3 fairness/stability | :func:`repro.arena.cells.run_cohort` |
"""

from repro import _lazy_exports
from repro.experiments import defaults

#: Public name -> the module that defines it.  The drivers build
#: simulations, so they load on first access (PEP 562): the harness
#: reads ``defaults`` for its grids without loading the simulator.
_EXPORTS = {
    "Figure5Network": "repro.experiments.figure5",
    "build_figure5": "repro.experiments.figure5",
    "TransferResult": "repro.experiments.transfers",
    "run_solo_transfer": "repro.experiments.transfers",
    "start_measured_transfer": "repro.experiments.transfers",
}

__all__ = [
    "defaults",
    "Figure5Network",
    "build_figure5",
    "TransferResult",
    "run_solo_transfer",
    "start_measured_transfer",
]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
