"""Experiment drivers reproducing every table and figure of the paper.

Each module runs *one* simulation of its artifact; the grids over
those runs are cells of :mod:`repro.harness.registry` (values from
:mod:`repro.experiments.defaults`), rendered by
:mod:`repro.harness.aggregate` for ``run-all`` and the paper verbs
(:mod:`repro.experiments.command`) alike.

| Paper artifact | Module |
|---|---|
| Figure 5 network | :mod:`repro.experiments.figure5` |
| Figures 1, 6, 7, 9 | :mod:`repro.experiments.traces` |
| Table 1 (+ §4.3 variant) | :mod:`repro.experiments.one_on_one` |
| Tables 2, 3, §4.3 two-way traffic | :mod:`repro.experiments.background` |
| Tables 4, 5 | :mod:`repro.experiments.internet` |
| §4.3 send-buffer sweep | :mod:`repro.experiments.transfers` (``sndbuf=``) |
| §4.3 fairness/stability | :mod:`repro.experiments.fairness_exp` |
| §6 TELNET response time | :mod:`repro.experiments.telnet_response` |
"""

from repro.experiments import defaults
from repro.experiments.figure5 import Figure5Network, build_figure5
from repro.experiments.transfers import (
    TransferResult,
    run_solo_transfer,
    start_measured_transfer,
)

__all__ = [
    "defaults",
    "Figure5Network",
    "build_figure5",
    "TransferResult",
    "run_solo_transfer",
    "start_measured_transfer",
]
