"""The Figure-5 simulation network.

Three source hosts on access Ethernets into Router1, a configurable
bottleneck link Router1→Router2, and three destination hosts behind
Router2.  Every host gets its own TCP protocol stack; the bottleneck
queues (both directions) are exposed for tracing, and
:meth:`Figure5Network.start_traffic` starts the tcplib TRAFFIC load
(§2.1) every experiment with background traffic runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.experiments import defaults as DFLT
from repro.net.link import PointToPointLink
from repro.net.node import Host
from repro.net.queue import DropTailQueue
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.protocol import TCPProtocol
from repro.trafficgen import TrafficGenerator, TrafficServer

HOST_NAMES = ("Host1a", "Host2a", "Host3a", "Host1b", "Host2b", "Host3b")


@dataclass
class Figure5Network:
    """A built Figure-5 network ready for experiments."""

    sim: Simulator
    topology: Topology
    rng: RngRegistry
    hosts: Dict[str, Host] = field(default_factory=dict)
    protocols: Dict[str, TCPProtocol] = field(default_factory=dict)
    bottleneck: PointToPointLink = None

    @property
    def forward_queue(self) -> DropTailQueue:
        """The Router1→Router2 egress queue (the paper's buffers)."""
        return self.bottleneck.channel_from(
            self.topology.router("Router1")).queue

    @property
    def reverse_queue(self) -> DropTailQueue:
        return self.bottleneck.channel_from(
            self.topology.router("Router2")).queue

    def protocol(self, host: str) -> TCPProtocol:
        return self.protocols[host]

    def pair(self, n: int) -> Tuple[TCPProtocol, TCPProtocol]:
        """The stacks of Host{n}a and Host{n}b, a measured flow's ends."""
        return self.protocols[f"Host{n}a"], self.protocols[f"Host{n}b"]

    def start_traffic(self, src: str, dst: str, cc: Callable, *,
                      arrival_mean: float, stream: str = "traffic",
                      quota: Optional[int] = None) -> TrafficGenerator:
        """Start TRAFFIC from *src* to *dst* now; return its generator.

        Conversations start *arrival_mean* seconds apart on average.
        The server on *dst* and the generator on *src* share one random
        stream seeded from the registry stream *stream*, and every
        conversation's connections use the controller factory *cc*.
        With a *quota* the generator launches that many conversations,
        their whole arrival process scheduled up front.
        """
        rng = random.Random(self.rng.stream(stream).random())
        TrafficServer(self.protocol(dst), rng, cc)
        generator = TrafficGenerator(self.protocol(src), dst, rng, cc,
                                     arrival_mean=arrival_mean,
                                     max_conversations=quota)
        if quota is None:
            generator.start()
        else:
            generator.start_prescheduled()
        return generator


def build_figure5(buffers: int = DFLT.DEFAULT_BUFFERS,
                  bandwidth: float = DFLT.BOTTLENECK_BANDWIDTH,
                  delay: float = DFLT.BOTTLENECK_DELAY,
                  seed: int = 0) -> Figure5Network:
    """Construct the Figure-5 network.

    Args:
        buffers: bottleneck router buffer count (10/15/20 in the paper).
        bandwidth: bottleneck bandwidth in bytes/second.
        delay: bottleneck one-way propagation delay in seconds.
        seed: root seed; host timer phases and all traffic draw from
            streams derived from it, so a (seed, parameters) pair fully
            determines the run.
    """
    sim = Simulator()
    topo = Topology(sim)
    rng = RngRegistry(seed)

    router1 = topo.add_router("Router1")
    router2 = topo.add_router("Router2")
    net = Figure5Network(sim=sim, topology=topo, rng=rng)

    for name in HOST_NAMES:
        host = topo.add_host(name)
        net.hosts[name] = host
        near_router = router1 if name.endswith("a") else router2
        topo.add_lan([host, near_router], name=f"lan-{name}")

    net.bottleneck = topo.add_link(router1, router2, bandwidth=bandwidth,
                                   delay=delay, queue_capacity=buffers,
                                   name="bottleneck")
    topo.build_routes()

    for name in HOST_NAMES:
        host_rng = random.Random(rng.stream(f"timer-phase/{name}").random())
        net.protocols[name] = TCPProtocol(net.hosts[name], rng=host_rng)
    return net
