"""The ``search_cohort`` cell runner: a parameterized arena cohort.

A search point names the bottleneck directly — bandwidth, one-way
delay, queue depth, per-flow transfer size, stochastic loss — instead
of picking a scenario from the named registry.  The runner builds an
anonymous :class:`~repro.arena.scenarios.Scenario` from those numbers
(:func:`repro.arena.scenarios.custom_scenario`) and pushes one flow
per scheme through it with :func:`repro.arena.cells.run_cohort`, so a
search evaluation exercises exactly the simulation path the arena and
paper experiments use.

``schemes`` is a ``"+"``-joined flow list (``"reno+vegas"``,
``"vegas+vegas+vegas"``).  ``+`` is the separator because scheme names
themselves contain commas (``vegas-1,3``) and cell keys use ``/``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.metrics.fairness import jain_fairness_index

#: Upper bound on cohort size: keeps a pathological search point from
#: turning one evaluation into a many-minutes simulation.
MAX_FLOWS = 16


def parse_schemes(schemes: str) -> List[str]:
    """Split and validate a ``"+"``-joined scheme list."""
    flows = [name.strip() for name in str(schemes).split("+") if name.strip()]
    if not flows:
        raise ConfigurationError(
            f"search cohort needs >= 1 scheme, got {schemes!r}")
    if len(flows) > MAX_FLOWS:
        raise ConfigurationError(
            f"search cohort capped at {MAX_FLOWS} flows, got {len(flows)}")
    return flows


def cohort_horizon(flows: int, size_kb: int, bw_kbps: float) -> float:
    """Deterministic horizon: ~4x the cohort's ideal drain time.

    A pure function of the point (never a cell parameter), so the cell
    key stays minimal while every backend computes the same cutoff.
    """
    drain_s = 4.0 * flows * size_kb / bw_kbps
    return min(240.0, max(30.0, 10.0 + drain_s))


def run_search_cohort(schemes: str, bw_kbps: float, delay_ms: float,
                      buffers: int, size_kb: int, loss: float,
                      seed: int) -> Dict[str, float]:
    """Execute one search point; flat per-flow metrics + fairness."""
    from repro.arena.cells import _flow_metrics, run_cohort
    from repro.arena.scenarios import custom_scenario

    flows = parse_schemes(schemes)
    spec = custom_scenario(
        bw_kbps, delay_ms, buffers, size_kb,
        cohort_horizon(len(flows), size_kb, bw_kbps), loss=loss,
        name="search")
    outcomes = run_cohort(flows, spec, seed=seed)
    metrics: Dict[str, float] = {"flows": float(len(flows))}
    for i, flow in enumerate(outcomes):
        metrics.update(_flow_metrics(f"f{i}", flow))
    metrics["fairness_index"] = jain_fairness_index(
        [flow.throughput_kbps for flow in outcomes])
    return metrics
