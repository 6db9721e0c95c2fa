"""Engine-scaling workload: hundreds of concurrent tcplib conversations.

The paper's experiments never exceed a few dozen simultaneous
connections, but the engine work this repo layers on top (the
far-horizon calendar scheduler) is motivated by
much denser populations.  This family is the benchmark for that
claim: ``flows`` tcplib conversations — the same TRAFFIC mix the
Table-2/3 background uses — launched across all three Figure-5 host
pairs so they contend on the classic bottleneck.

Each host pair gets its own TRAFFIC generator with a third of the
conversation budget; arrival means are scaled so the whole population
launches inside :data:`LAUNCH_WINDOW` seconds and the run then drains
until :data:`HORIZON`.  Everything is seeded through the
usual :class:`~repro.sim.rng.RngRegistry` streams, so a ``(flows,
seed)`` pair fully determines the run and its metrics participate in
the determinism gates like any paper cell.
"""

from __future__ import annotations

from typing import Dict, Tuple

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

#: Seconds over which each generator's quota launches, in expectation.
LAUNCH_WINDOW = 12.0

#: Seconds the run lasts, so in-flight conversations can drain.
HORIZON = 20.0


def many_flows_metrics(flows: int, seed: int) -> Dict[str, float]:
    """Run *flows* Reno tcplib conversations over the Figure-5
    bottleneck (10 buffers) and return the cell's flat metrics.

    The conversation budget is split evenly over the three host pairs
    (remainders go to the earlier pairs).  Each generator schedules
    its whole arrival process up front — those start times are the
    far-future population the engine's calendar scheduler parks
    outside the heap — and the simulation runs to :data:`HORIZON`.
    """
    if flows < len(HOST_PAIRS):
        raise ValueError(f"flows must be >= {len(HOST_PAIRS)}, got {flows}")
    net = build_figure5(seed=seed)
    reno = resolve_cc("reno")
    share, extra = divmod(flows, len(HOST_PAIRS))
    generators = []
    for idx, (src, dst) in enumerate(HOST_PAIRS):
        quota = share + (1 if idx < extra else 0)
        generators.append(net.start_traffic(
            src, dst, reno, stream=f"many-flows-{idx}",
            arrival_mean=LAUNCH_WINDOW / quota, quota=quota))
    net.sim.run(until=HORIZON)
    end = min(HORIZON, net.sim.now)
    return {
        "conversations_started": sum(g.started_count()
                                     for g in generators),
        "conversations_finished": sum(g.finished_count()
                                      for g in generators),
        "throughput_kbps": fold_sum(g.throughput_kbps(0.0, end)
                                    for g in generators),
        "retransmit_kb": fold_sum(g.total_retransmitted_kb()
                                  for g in generators),
        "far_events_peak": net.sim.far_events_peak,
    }
