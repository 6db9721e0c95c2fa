"""§4.3 "Multiple Competing Connections": fairness and stability.

"We ran simulations with 2, 4, and 16 connections sharing a bottleneck
link, where all the connections either had the same propagation delay,
or where one half of the connections had twice the propagation delay
of the other half. ... To judge fairness, we chose Jain's fairness
index. ... There were no stability problems in the case of 16
connections sharing the bottleneck link, even though there were only
20 buffers at the router."

Each connection gets its own source host with a private access link
(so propagation delays can differ per connection) into the shared
bottleneck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.experiments import defaults as DFLT
from repro.experiments.transfers import CCSpec, resolve_cc
from repro.metrics.fairness import jain_fairness_index
from repro.net.topology import Topology
from repro.numeric import fold_sum
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.protocol import TCPProtocol
from repro.units import mb, mbps, ms


@dataclass
class FairnessResult:
    """Outcome of one multiple-connection run."""

    cc_name: str
    connections: int
    throughputs_kbps: List[float]
    fairness_index: float
    total_retransmit_kb: float
    coarse_timeouts: int
    all_done: bool

    @property
    def aggregate_throughput(self) -> float:
        return fold_sum(self.throughputs_kbps)


def run_competing_connections(cc: CCSpec, count: int,
                              transfer_bytes: int = None,
                              mixed_delays: bool = False,
                              base_delay: float = ms(10),
                              buffers: int = 20,
                              seed: int = 0,
                              horizon: float = 600.0) -> FairnessResult:
    """*count* simultaneous transfers through one shared bottleneck.

    ``mixed_delays=True`` doubles the access propagation delay for the
    second half of the connections (the paper's 2:1 configuration).
    The default transfer size follows the paper: 8 MB for 2/4
    connections, 2 MB for 16.
    """
    if transfer_bytes is None:
        transfer_bytes = mb(8) if count <= 4 else mb(2)
    factory = resolve_cc(cc)
    sim = Simulator()
    topo = Topology(sim)
    rng = RngRegistry(seed)
    r1 = topo.add_router("R1")
    r2 = topo.add_router("R2")
    topo.add_link(r1, r2, bandwidth=DFLT.BOTTLENECK_BANDWIDTH,
                  delay=DFLT.BOTTLENECK_DELAY, queue_capacity=buffers,
                  name="bottleneck")
    sources, sinks = [], []
    for i in range(count):
        src = topo.add_host(f"S{i}")
        dst = topo.add_host(f"D{i}")
        delay = base_delay * (2 if mixed_delays and i >= count // 2 else 1)
        topo.add_link(src, r1, bandwidth=mbps(10), delay=delay,
                      queue_capacity=None, name=f"access{i}")
        topo.add_link(r2, dst, bandwidth=mbps(10), delay=ms(0.1),
                      queue_capacity=None, name=f"egress{i}")
        sources.append(src)
        sinks.append(dst)
    topo.build_routes()

    transfers: List[BulkTransfer] = []
    stagger = rng.stream("stagger")
    for i in range(count):
        sproto = TCPProtocol(sources[i], rng=random.Random(
            rng.stream(f"timer/s{i}").random()))
        dproto = TCPProtocol(sinks[i], rng=random.Random(
            rng.stream(f"timer/d{i}").random()))
        BulkSink(dproto, DFLT.TRANSFER_PORT)
        # Small random stagger so connections do not start in lockstep.
        delay = stagger.uniform(0.0, 0.25)
        holder_proto = sproto

        def _start(proto=holder_proto, dst_name=sinks[i].name) -> None:
            transfers.append(BulkTransfer(proto, dst_name,
                                          DFLT.TRANSFER_PORT,
                                          transfer_bytes, cc=factory()))

        sim.schedule(delay, _start)
    sim.run(until=horizon)

    throughputs = [t.conn.stats.throughput_kbps() for t in transfers]
    name = cc if isinstance(cc, str) else "custom"
    return FairnessResult(
        cc_name=name,
        connections=count,
        throughputs_kbps=throughputs,
        fairness_index=jain_fairness_index(throughputs) if throughputs else 0.0,
        total_retransmit_kb=fold_sum(t.conn.stats.retransmitted_kb()
                                     for t in transfers),
        coarse_timeouts=sum(t.conn.stats.coarse_timeouts for t in transfers),
        all_done=all(t.done for t in transfers) and len(transfers) == count,
    )

