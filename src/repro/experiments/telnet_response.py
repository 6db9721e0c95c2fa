"""§6: interactive response time in an all-Vegas world.

"Simulations running tcplib traffic over both Reno and Vegas show that
the average response time in TELNET connections is around 25% faster
when using Vegas as compared to Reno."

We run the TRAFFIC workload alone (no bulk transfer) with every
connection using the same protocol, and measure keystroke→echo
latency at the TELNET clients.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import List

from repro.experiments import defaults as DFLT
from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import CCSpec, resolve_cc


@dataclass
class TelnetResponseResult:
    """Response-time statistics for one all-X-protocol TRAFFIC run."""

    cc_name: str
    samples: List[float]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples) if self.samples else 0.0

    @property
    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0

    @property
    def p95(self) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def run_telnet_response(cc: CCSpec, seed: int = 0,
                        buffers: int = DFLT.DEFAULT_BUFFERS,
                        arrival_mean: float = DFLT.TRAFFIC_ARRIVAL_MEAN,
                        duration: float = 120.0) -> TelnetResponseResult:
    """TRAFFIC-only run with every connection using *cc*."""
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
    name = cc if isinstance(cc, str) else "custom"
    return TelnetResponseResult(cc_name=name,
                                samples=generator.telnet_response_times())

