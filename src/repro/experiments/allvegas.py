"""§6: "what happens when the whole world runs Vegas".

"Simulations show that if there are enough buffers in the routers ...
a higher throughput and a faster response time result."  And the
flip side: "As the load increases and/or the number of router buffers
decreases, Vegas's congestion avoidance mechanisms are not as
effective, and Vegas starts to behave more like Reno."

:func:`run_world` drives the TRAFFIC workload with *every* connection
using one protocol and reports aggregate goodput, retransmissions and
TELNET response times; the ``allvegas`` registry experiment sweeps
the router buffer count to expose the degeneracy the paper predicts.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from repro.experiments import defaults as DFLT
from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import CCSpec, resolve_cc


@dataclass
class WorldResult:
    """Aggregate outcome of one all-one-protocol TRAFFIC run."""

    cc_name: str
    buffers: int
    goodput_kbps: float
    retransmit_kb: float
    coarse_timeouts: int
    conversations: int
    telnet_mean_response: float


def run_world(cc: CCSpec, buffers: int = DFLT.DEFAULT_BUFFERS,
              seed: int = 0, arrival_mean: float = 0.25,
              duration: float = 120.0) -> WorldResult:
    """TRAFFIC-only run where every connection uses *cc*."""
    from repro.trafficgen import TrafficGenerator, TrafficServer

    factory = resolve_cc(cc)
    net = build_figure5(buffers=buffers, seed=seed)
    rng = random.Random(net.rng.stream("traffic").random())
    TrafficServer(net.protocol("Host1b"), rng, factory)
    generator = TrafficGenerator(net.protocol("Host1a"), "Host1b", rng,
                                 factory, arrival_mean=arrival_mean)
    generator.start(0.0)
    net.sim.run(until=duration)
    generator.stop()

    timeouts = 0
    for conv in generator.conversations:
        for conn in conv.connections:
            timeouts += conn.stats.coarse_timeouts
    samples = generator.telnet_response_times()
    name = cc if isinstance(cc, str) else "custom"
    return WorldResult(
        cc_name=name,
        buffers=buffers,
        goodput_kbps=generator.throughput_kbps(0.0, duration),
        retransmit_kb=generator.total_retransmitted_kb(),
        coarse_timeouts=timeouts,
        conversations=len(generator.conversations),
        telnet_mean_response=(statistics.fmean(samples) if samples else 0.0),
    )

