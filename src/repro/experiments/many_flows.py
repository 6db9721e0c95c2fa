"""Engine-scaling workload: hundreds of concurrent tcplib conversations.

The paper's experiments never exceed a few dozen simultaneous
connections, but the engine work this repo layers on top (the
far-horizon calendar scheduler) is motivated by
much denser populations.  This family is the benchmark for that
claim: ``flows`` tcplib conversations — the same TRAFFIC mix the
Table-2/3 background uses — launched across all three Figure-5 host
pairs so they contend on the classic bottleneck.

Each host pair gets its own :class:`~repro.trafficgen.TrafficGenerator`
with a third of the conversation budget; arrival means are scaled so
the whole population launches inside ``launch_window`` seconds and the
run then drains until ``horizon``.  Everything is seeded through the
usual :class:`~repro.sim.rng.RngRegistry` streams, so a ``(flows,
seed)`` pair fully determines the run and its metrics participate in
the determinism gates like any paper cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments import defaults as DFLT
from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import resolve_cc
from repro.numeric import fold_sum

#: The three Figure-5 source/destination pairings used to spread the
#: conversation population across access LANs.
HOST_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("Host1a", "Host1b"),
    ("Host2a", "Host2b"),
    ("Host3a", "Host3b"),
)

@dataclass
class ManyFlowsResult:
    """Aggregate outcome of one many-flows run."""

    flows: int
    conversations_started: int
    conversations_finished: int
    events_processed: int
    throughput_kbps: float
    retransmit_kb: float
    far_events_peak: int


def run_many_flows(flows: int = 100, seed: int = 0,
                   cc: str = "reno",
                   buffers: int = DFLT.DEFAULT_BUFFERS,
                   launch_window: float = 12.0,
                   horizon: float = 20.0) -> ManyFlowsResult:
    """Run *flows* tcplib conversations over the Figure-5 bottleneck.

    The conversation budget is split evenly over the three host pairs
    (remainders go to the earlier pairs); each generator stops
    launching once its share is reached, and the simulation runs to
    *horizon* so in-flight conversations can drain.
    """
    from repro.trafficgen import TrafficGenerator, TrafficServer

    if flows < len(HOST_PAIRS):
        raise ValueError(f"flows must be >= {len(HOST_PAIRS)}, got {flows}")
    net = build_figure5(buffers=buffers, seed=seed)
    factory = resolve_cc(cc)
    share, extra = divmod(flows, len(HOST_PAIRS))
    generators: List[TrafficGenerator] = []
    for idx, (src, dst) in enumerate(HOST_PAIRS):
        quota = share + (1 if idx < extra else 0)
        rng = random.Random(net.rng.stream(f"many-flows-{idx}").random())
        TrafficServer(net.protocol(dst), rng, factory)
        # Mean interarrival so this generator's quota lands inside the
        # launch window in expectation.
        gen = TrafficGenerator(net.protocol(src), dst, rng, factory,
                               arrival_mean=launch_window / max(quota, 1),
                               max_conversations=quota)
        # The whole arrival process is scheduled up front: those start
        # times are the far-future population the engine's calendar
        # scheduler parks outside the heap.
        gen.start_prescheduled(0.0)
        generators.append(gen)

    net.sim.run(until=horizon)
    for gen in generators:
        gen.stop()

    sim = net.sim
    end = min(horizon, sim.now)
    started = sum(len(g.conversations) for g in generators)
    finished = sum(g.finished_count() for g in generators)
    throughput = fold_sum(g.throughput_kbps(0.0, end) for g in generators)
    retransmit = fold_sum(g.total_retransmitted_kb() for g in generators)
    return ManyFlowsResult(
        flows=flows,
        conversations_started=started,
        conversations_finished=finished,
        events_processed=sim.events_processed,
        throughput_kbps=throughput,
        retransmit_kb=retransmit,
        far_events_peak=sim.far_events_peak,
    )


def many_flows_metrics(flows: int, seed: int) -> Dict[str, float]:
    """Flat metric dict for the harness registry."""
    result = run_many_flows(flows=flows, seed=seed)
    return {
        "conversations_started": result.conversations_started,
        "conversations_finished": result.conversations_finished,
        "throughput_kbps": result.throughput_kbps,
        "retransmit_kb": result.retransmit_kb,
        "far_events_peak": result.far_events_peak,
    }
