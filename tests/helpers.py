"""Shared test harness utilities.

``make_pair`` builds the smallest interesting network — two hosts
around a two-router bottleneck — and returns everything a TCP test
needs.  Keeping construction in one place keeps individual tests
focused on behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.link import PointToPointLink
from repro.net.node import Host
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.tcp.protocol import TCPProtocol
from repro.units import kbps, ms


@dataclass
class Pair:
    """A two-host network with a configurable bottleneck."""

    sim: Simulator
    topology: Topology
    a: Host
    b: Host
    proto_a: TCPProtocol
    proto_b: TCPProtocol
    bottleneck: PointToPointLink

    @property
    def forward_queue(self):
        return self.bottleneck.channel_from(self.topology.router("R1")).queue


def make_pair(bandwidth: float = kbps(200), delay: float = ms(50),
              queue_capacity: int = 10, trace=None, loss: float = 0.0,
              loss_rng=None) -> Pair:
    """Two hosts, two routers, one bottleneck link."""
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_host("A")
    b = topo.add_host("B")
    r1 = topo.add_router("R1")
    r2 = topo.add_router("R2")
    topo.add_lan([a, r1])
    topo.add_lan([r2, b])
    bottleneck = topo.add_link(r1, r2, bandwidth=bandwidth, delay=delay,
                               queue_capacity=queue_capacity,
                               name="bottleneck", trace=trace, loss=loss,
                               loss_rng=loss_rng)
    topo.build_routes()
    return Pair(sim=sim, topology=topo, a=a, b=b,
                proto_a=TCPProtocol(a), proto_b=TCPProtocol(b),
                bottleneck=bottleneck)


def run_transfer(pair: Pair, nbytes: int, cc=None, until: float = 300.0,
                 port: int = 9000, **options):
    """Run one bulk transfer A→B on *pair*; returns the BulkTransfer."""
    return run_transfer_and_sink(pair, nbytes, cc=cc, until=until,
                                 port=port, **options)[0]


def run_transfer_and_sink(pair: Pair, nbytes: int, cc=None,
                          until: float = 300.0, port: int = 9000,
                          **options):
    """:func:`run_transfer`, also returning the BulkSink: its
    ``connections`` are the server endpoints it accepted, which the
    host's demux forgets once they close."""
    from repro.apps.bulk import BulkSink, BulkTransfer

    sink = BulkSink(pair.proto_b, port)
    transfer = BulkTransfer(pair.proto_a, "B", port, nbytes, cc=cc, **options)
    pair.sim.run(until=until)
    return transfer, sink
