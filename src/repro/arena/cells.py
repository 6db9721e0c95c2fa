"""Arena cell runners: solo, duel, and mixed-cohabitation matchups.

Every matchup reduces to the same simulation shape — a *cohort* of
bulk flows, one scheme name per flow, pushed through one scenario's
bottleneck — so one builder (:func:`run_cohort`) serves all three cell
families (and the §4.3 ``fairness`` and §4.4 ``crossover`` cells):

* ``arena_solo``: a single flow, the scheme's unopposed baseline;
* ``arena_duel``: one flow each of two schemes (round-robin 1v1);
* ``arena_mix``: one *subject* flow sharing the bottleneck with N
  flows of a *cross* scheme (the "one Vegas among Renos" question).

The ``arena`` record of :mod:`repro.harness.registry` dispatches on
its cells' ``mode`` (``solo``/``duel``/``mix``) to these module-level
functions in worker processes; they return flat ``{metric: number}``
dicts like every other cell runner.  ``crossover`` is a Reno/Vegas
duel on a parameterized bottleneck, beside the closed-form buffer
count B* above which Reno stops losing and wins (:func:`crossover_band`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.arena.scenarios import Scenario, custom_scenario, get_scenario
from repro.core.registry import cc_factory
from repro.experiments import defaults as DFLT
from repro.metrics.fairness import jain_fairness_index
from repro.net.topology import Topology
from repro.numeric import fold_sum
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp import constants as C
from repro.tcp.protocol import TCPProtocol
from repro.units import mbps, ms

#: Propagation delay of each flow's link from the far router to its
#: sink; part of every cohort flow's base RTT.
EGRESS_DELAY = ms(0.1)


@dataclass
class FlowOutcome:
    """Per-flow results of one cohort run."""

    scheme: str
    throughput_kbps: float
    retransmit_kb: float
    coarse_timeouts: int
    rtt_mean_ms: float
    done: bool
    start: float            # seeded stagger offset of the flow's start


def run_cohort(schemes: Sequence[str], scenario: Union[str, Scenario],
               seed: int = 0,
               access_delays: Optional[Sequence[float]] = None
               ) -> List[FlowOutcome]:
    """Run one flow per entry of *schemes* through *scenario*.

    *scenario* is a registered scenario name or a :class:`Scenario`
    instance — the crossover cells build anonymous parameterized
    scenarios (:func:`repro.arena.scenarios.custom_scenario`) and the
    §4.3 fairness cells a ``classic`` variant, neither in the named
    registry.  *access_delays* gives each flow its own access-link
    propagation delay (the §4.3 2:1 configuration); by default every
    flow uses the scenario's ``access_delay``.

    This is the one dumbbell builder: each flow gets a private
    source/sink host pair and access links into a shared two-router
    bottleneck, so flows interact only at the scenario's queue.  Flow
    starts are staggered by a small seeded jitter — simultaneous SYNs
    would synchronize slow-start and measure the phase effect, not the
    schemes.  Outcomes are returned in flow order (``schemes`` order);
    each carries its ``start`` offset for reducers that fold in start
    order.
    """
    spec: Scenario = (scenario if isinstance(scenario, Scenario)
                      else get_scenario(scenario))
    factories = [cc_factory(name) for name in schemes]
    sim = Simulator()
    topo = Topology(sim)
    rng = RngRegistry(seed)
    r1 = topo.add_router("R1")
    r2 = topo.add_router("R2")
    # Time-varying scenarios carry a TraceSpec; build it from the
    # cell's own seeded streams so the trace (and any stochastic loss)
    # is a pure function of (scenario, seed).  Static scenarios take
    # the unchanged closed-form path — no extra streams, no trace —
    # so their cells stay bit-identical to the committed baselines.
    link_kwargs = {}
    if spec.trace is not None:
        link_kwargs["trace"] = spec.trace.build(rng.stream("link-trace"))
    if spec.loss > 0.0:
        link_kwargs["loss"] = spec.loss
        link_kwargs["loss_rng"] = rng.stream("link-loss")
    topo.add_link(r1, r2, bandwidth=spec.bandwidth, delay=spec.delay,
                  queue_capacity=spec.buffers, name="bottleneck",
                  **link_kwargs)
    if access_delays is None:
        access_delays = [spec.access_delay] * len(schemes)
    elif len(access_delays) != len(schemes):
        raise ValueError(f"{len(access_delays)} access delays for "
                         f"{len(schemes)} flows")
    sources, sinks = [], []
    for i, access_delay in enumerate(access_delays):
        src = topo.add_host(f"S{i}")
        dst = topo.add_host(f"D{i}")
        topo.add_link(src, r1, bandwidth=mbps(10), delay=access_delay,
                      queue_capacity=None, name=f"access{i}")
        topo.add_link(r2, dst, bandwidth=mbps(10), delay=EGRESS_DELAY,
                      queue_capacity=None, name=f"egress{i}")
        sources.append(src)
        sinks.append(dst)
    topo.build_routes()

    stagger = rng.stream("stagger")
    transfers: List[BulkTransfer] = [None] * len(schemes)
    starts: List[float] = []
    for i, factory in enumerate(factories):
        sproto = TCPProtocol(sources[i], rng=random.Random(
            rng.stream(f"timer/s{i}").random()))
        dproto = TCPProtocol(sinks[i], rng=random.Random(
            rng.stream(f"timer/d{i}").random()))
        BulkSink(dproto, DFLT.TRANSFER_PORT)
        delay = stagger.uniform(0.0, 0.25)
        starts.append(delay)

        def _start(slot=i, proto=sproto, dst_name=sinks[i].name,
                   make_cc=factory) -> None:
            transfers[slot] = BulkTransfer(proto, dst_name,
                                           DFLT.TRANSFER_PORT,
                                           spec.transfer_bytes, cc=make_cc())

        sim.schedule_anon(delay, _start)
    sim.run(until=spec.horizon)

    outcomes: List[FlowOutcome] = []
    for scheme, transfer, start in zip(schemes, transfers, starts):
        stats = transfer.conn.stats
        rtt_mean = stats.rtt_mean
        outcomes.append(FlowOutcome(
            scheme=scheme,
            throughput_kbps=stats.throughput_kbps(),
            retransmit_kb=stats.retransmitted_kb(),
            coarse_timeouts=stats.coarse_timeouts,
            rtt_mean_ms=(rtt_mean or 0.0) * 1000.0,
            done=transfer.done,
            start=start,
        ))
    return outcomes


def _flow_metrics(prefix: str, flow: FlowOutcome) -> Dict[str, float]:
    key = f"{prefix}_" if prefix else ""
    return {
        f"{key}throughput_kbps": flow.throughput_kbps,
        f"{key}retransmit_kb": flow.retransmit_kb,
        f"{key}coarse_timeouts": float(flow.coarse_timeouts),
        f"{key}rtt_mean_ms": flow.rtt_mean_ms,
        f"{key}completed": 1.0 if flow.done else 0.0,
    }


def arena_solo(scheme: str, scenario: str, seed: int) -> Dict[str, float]:
    """One unopposed flow: the scheme's baseline on this scenario."""
    flow, = run_cohort([scheme], scenario, seed=seed)
    return _flow_metrics("", flow)


def arena_duel(a: str, b: str, scenario: Union[str, Scenario],
               seed: int) -> Dict[str, float]:
    """Round-robin 1v1: one flow of *a* against one flow of *b*."""
    flow_a, flow_b = run_cohort([a, b], scenario, seed=seed)
    metrics = _flow_metrics("a", flow_a)
    metrics.update(_flow_metrics("b", flow_b))
    metrics["fairness_index"] = jain_fairness_index(
        [flow_a.throughput_kbps, flow_b.throughput_kbps])
    return metrics


def arena_mix(scheme: str, cross: str, n_cross: int, scenario: str,
              seed: int) -> Dict[str, float]:
    """One *scheme* flow cohabiting with *n_cross* flows of *cross*.

    The subject flow is flow 0; the cross cohort's throughput is
    reported both as an aggregate and per-flow mean so league scoring
    can ask "what did the subject's presence cost the incumbents?".
    """
    if n_cross < 1:
        raise ValueError(f"n_cross must be >= 1, got {n_cross}")
    flows = run_cohort([scheme] + [cross] * n_cross, scenario, seed=seed)
    subject, cohort = flows[0], flows[1:]
    metrics = _flow_metrics("subject", subject)
    cohort_rates = [f.throughput_kbps for f in cohort]
    cross_total = fold_sum(cohort_rates)
    metrics["cross_throughput_kbps"] = cross_total
    metrics["cross_mean_throughput_kbps"] = cross_total / len(cohort)
    metrics["cross_retransmit_kb"] = fold_sum(f.retransmit_kb
                                              for f in cohort)
    metrics["cross_completed"] = (
        1.0 if all(f.done for f in cohort) else 0.0)
    metrics["fairness_index"] = jain_fairness_index(
        [subject.throughput_kbps] + cohort_rates)
    return metrics


def crossover_band(spec: Scenario) -> Tuple[float, float]:
    """B* for Vegas's α and β: the router buffers above which a Reno
    flow capped by its socket buffer stops losing beside one Vegas flow.

    First order, on the propagation-only base RTT: Reno keeps
    S = sockbuf/MSS segments in flight, so the queue holds
    S + w − BDP, and Vegas settles where its Diff is a:
    w·(S + w − BDP) = a·(S + w).  B*(a) = S + w_a − BDP, with w_a the
    positive root.
    """
    vegas = cc_factory("vegas")()
    sockbuf = C.DEFAULT_SOCKBUF / C.DEFAULT_MSS
    base_rtt = 2.0 * (spec.delay + spec.access_delay + EGRESS_DELAY)
    bdp = spec.bandwidth * base_rtt / C.DEFAULT_MSS

    def bstar(a: float) -> float:
        # w² + (S − BDP − a)·w − a·S = 0
        half = (sockbuf - bdp - a) / 2.0
        window = math.sqrt(half * half + a * sockbuf) - half
        return sockbuf + window - bdp

    return bstar(vegas.alpha), bstar(vegas.beta)


def arena_crossover(bw_kbps: float, delay_ms: float, buffers: int,
                    seed: int) -> Dict[str, float]:
    """A Reno/Vegas duel on one crossover bottleneck: the duel's
    metrics, Reno's lead over Vegas (``regret_kbps``) and the B* band."""
    spec = custom_scenario(bw_kbps, delay_ms, buffers,
                           DFLT.CROSSOVER_TRANSFER_KB, DFLT.CROSSOVER_HORIZON,
                           name="crossover")
    metrics = arena_duel("reno", "vegas", spec, seed)
    metrics["regret_kbps"] = (metrics["a_throughput_kbps"]
                              - metrics["b_throughput_kbps"])
    metrics["bstar_lo"], metrics["bstar_hi"] = crossover_band(spec)
    return metrics
