"""Tables 2 and 3: a 1 MB transfer against tcplib background traffic.

Table 2: "the protocol TRAFFIC is running between Host1a and Host1b
... and a 1 MByte transfer is running between Host2a and Host2b", with
the background over Reno and the measured transfer over Reno,
Vegas-1,3 and Vegas-2,4; averages over 57 runs (seeds x 10/15/20
router buffers).

Table 3: the background traffic's own throughput for all four
combinations of background CC x 1 MB-transfer CC.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments import defaults as DFLT
from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import (
    CCSpec,
    TransferResult,
    resolve_cc,
    start_measured_transfer,
)
from repro.trace.tracer import ConnectionTracer


@dataclass
class BackgroundRunResult:
    """One run of the Table-2/3 scenario."""

    transfer: TransferResult
    background_throughput_kbps: float
    background_retransmit_kb: float
    background_conversations: int
    telnet_response_times: List[float]


def run_with_background(transfer_cc: CCSpec, background_cc: CCSpec = "reno",
                        buffers: int = DFLT.DEFAULT_BUFFERS,
                        seed: int = 0,
                        arrival_mean: float = DFLT.TRAFFIC_ARRIVAL_MEAN,
                        transfer_start: float = 2.0,
                        size: int = DFLT.LARGE_TRANSFER,
                        two_way: bool = False,
                        horizon: float = DFLT.TRANSFER_HORIZON,
                        tracer: Optional[ConnectionTracer] = None,
                        ) -> BackgroundRunResult:
    """One measured transfer with TRAFFIC load on the shared bottleneck.

    ``two_way=True`` adds a second TRAFFIC generator in the reverse
    direction (Host3b→Host3a), the §4.3 "two-way background traffic"
    variant.
    """
    from repro.trafficgen import TrafficGenerator, TrafficServer

    net = build_figure5(buffers=buffers, seed=seed)
    bg_factory = resolve_cc(background_cc)
    rng = random.Random(net.rng.stream("traffic").random())
    TrafficServer(net.protocol("Host1b"), rng, bg_factory)
    generator = TrafficGenerator(net.protocol("Host1a"), "Host1b", rng,
                                 bg_factory, arrival_mean=arrival_mean)
    generator.start(0.0)
    reverse_generator = None
    if two_way:
        rng2 = random.Random(net.rng.stream("traffic-reverse").random())
        TrafficServer(net.protocol("Host3a"), rng2, bg_factory)
        reverse_generator = TrafficGenerator(net.protocol("Host3b"),
                                             "Host3a", rng2, bg_factory,
                                             arrival_mean=arrival_mean)
        reverse_generator.start(0.0)

    factory = resolve_cc(transfer_cc)
    holder = start_measured_transfer(net, factory, size,
                                     src="Host2a", dst="Host2b",
                                     start_at=transfer_start, tracer=tracer)
    net.sim.run(until=horizon)
    generator.stop()
    if reverse_generator is not None:
        reverse_generator.stop()
    end = min(horizon, net.sim.now)
    name = transfer_cc if isinstance(transfer_cc, str) else "custom"
    return BackgroundRunResult(
        transfer=TransferResult.from_transfer(holder[0], name),
        background_throughput_kbps=generator.throughput_kbps(0.0, end),
        background_retransmit_kb=generator.total_retransmitted_kb(),
        background_conversations=len(generator.conversations),
        telnet_response_times=generator.telnet_response_times(),
    )


#: Paper values for side-by-side printing.
PAPER_TABLE2: Dict[str, Dict[str, float]] = {
    "Throughput (KB/s)": {"reno": 58.3, "vegas-1,3": 89.4, "vegas-2,4": 91.8},
    "Retransmissions (KB)": {"reno": 55.4, "vegas-1,3": 27.1,
                             "vegas-2,4": 29.4},
    "Coarse timeouts": {"reno": 5.6, "vegas-1,3": 0.9, "vegas-2,4": 0.9},
}

PAPER_TABLE3: Dict[Tuple[str, str], float] = {
    ("reno", "reno"): 68, ("reno", "vegas"): 82,
    ("vegas", "reno"): 84, ("vegas", "vegas"): 85,
}
