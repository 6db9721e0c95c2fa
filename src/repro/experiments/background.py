"""Tables 2 and 3 and §6: tcplib background traffic on Figure 5.

Table 2: "the protocol TRAFFIC is running between Host1a and Host1b
... and a 1 MByte transfer is running between Host2a and Host2b", with
the background over Reno and the measured transfer over Reno,
Vegas-1,3 and Vegas-2,4; averages over 57 runs (seeds x 10/15/20
router buffers).

Table 3: the background traffic's own throughput for all four
combinations of background CC x 1 MB-transfer CC.

§6 runs TRAFFIC alone with every connection over one protocol
(:func:`run_world`): "the average response time in TELNET connections
is around 25% faster when using Vegas as compared to Reno", and "as
the load increases and/or the number of router buffers decreases ...
Vegas starts to behave more like Reno".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
    background_conversations: int


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
    net = build_figure5(buffers=buffers, seed=seed)
    bg_factory = resolve_cc(background_cc)
    generator = net.start_traffic("Host1a", "Host1b", bg_factory,
                                  arrival_mean=arrival_mean)
    if two_way:
        net.start_traffic("Host3b", "Host3a", bg_factory,
                          stream="traffic-reverse", arrival_mean=arrival_mean)
    transfer = start_measured_transfer(*net.pair(2), transfer_cc, size,
                                       start_at=transfer_start, tracer=tracer)
    net.sim.run(until=horizon)
    end = min(horizon, net.sim.now)
    return BackgroundRunResult(
        transfer=TransferResult.from_transfer(transfer, transfer_cc),
        background_throughput_kbps=generator.throughput_kbps(0.0, end),
        background_conversations=generator.started_count(),
    )


@dataclass
class WorldResult:
    """Aggregates of one TRAFFIC-only run over a single protocol."""

    goodput_kbps: float
    retransmit_kb: float
    coarse_timeouts: int
    conversations: int
    telnet_samples: List[float]


def run_world(cc: CCSpec, buffers: int = DFLT.DEFAULT_BUFFERS,
              seed: int = 0,
              arrival_mean: float = DFLT.TRAFFIC_ARRIVAL_MEAN,
              duration: float = 120.0) -> WorldResult:
    """TRAFFIC from Host1a to Host1b, every connection using *cc*.

    The §6 ``telnet`` cells read the TELNET keystroke→echo latencies;
    the ``allvegas`` cells sweep the router buffer count.
    """
    net = build_figure5(buffers=buffers, seed=seed)
    generator = net.start_traffic("Host1a", "Host1b", resolve_cc(cc),
                                  arrival_mean=arrival_mean)
    net.sim.run(until=duration)
    return WorldResult(
        goodput_kbps=generator.throughput_kbps(0.0, duration),
        retransmit_kb=generator.total_retransmitted_kb(),
        coarse_timeouts=generator.total("coarse_timeouts"),
        conversations=generator.started_count(),
        telnet_samples=generator.telnet_response_times(),
    )
