"""Tables 4 and 5: the Internet (UA→NIH) experiments, emulated.

The paper measured transfers over a 17-hop Internet path "through
Denver, St. Louis, Chicago, Cleveland, New York and Washington DC"
for seven days, across all levels of congestion.  Per DESIGN.md's
substitution table we emulate that path: a chain of routers joined by
T1-class links, with bursty on/off cross-traffic at several interior
hops whose intensity varies run to run (standing in for time-of-day
variation).  Absolute KB/s differ from the paper's; the comparative
structure — Vegas' advantage, its growth as transfers shrink, Reno's
~20 KB slow-start retransmission floor — is what the tests check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.apps.crosstraffic import CrossTrafficSource
from repro.experiments import defaults as DFLT
from repro.experiments.transfers import CCSpec, TransferResult, resolve_cc
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.protocol import TCPProtocol
from repro.trace.tracer import ConnectionTracer
from repro.units import kb, kbps, mbps, ms

#: Number of hops (links) on the UA→NIH path.
HOPS = 17

#: Interior link capacity (bytes/second).
INTERIOR_BANDWIDTH = kbps(200)

#: Interior per-link propagation delay; 17 hops ≈ 38 ms one way.
INTERIOR_DELAY = ms(2.4)

#: Buffering at the congested (hot) routers.  Deliberately small
#: relative to the path BDP (~32 segments): the dominant loss process
#: on the 1994 path was senders overflowing modest bottleneck queues,
#: which is what gives Reno both its slow-start loss floor (Table 5)
#: and its steady-state probing losses.
HOT_BUFFERS = 10

#: Buffering at uncongested routers (never the loss point).
INTERIOR_BUFFERS = 30

#: Links carrying heavy cross traffic (0-based interior link indices).
#: A 1994 long-haul path typically had one dominant bottleneck — a
#: congested regional/backbone interchange — with the rest of the
#: hops adding delay and jitter but little loss.
HOT_LINKS = (8,)

#: Links carrying light cross traffic; remaining links carry none.
COOL_LINKS = (2, 6, 10, 14)

#: Steady cross-traffic load ranges (fraction of link capacity).  The
#: steady component inflates RTT, adds jitter, and sets the available
#: bandwidth each run; it rarely drops packets by itself.
HOT_LOAD_RANGE = (0.15, 0.40)
COOL_LOAD_RANGE = (0.04, 0.10)

#: Loss bursts: occasional short overload episodes ("other people's
#: slow start") on the hot links — brief, mild, and several seconds
#: apart, so they perturb rather than dominate.
BURST_RATE_FACTOR = 1.1
BURST_ON_MEAN = 0.10
BURST_OFF_RANGE = (4.0, 8.0)


@dataclass
class InternetPath:
    """A built UA→NIH emulated path."""

    sim: Simulator
    topology: Topology
    rng: RngRegistry
    ua: TCPProtocol
    nih: TCPProtocol
    cross_sources: List[CrossTrafficSource] = field(default_factory=list)
    load_profile: List[float] = field(default_factory=list)

    def start_cross_traffic(self) -> None:
        for source in self.cross_sources:
            source.start()

    def stop_cross_traffic(self) -> None:
        for source in self.cross_sources:
            source.stop()


def build_internet_path(seed: int = 0, hops: Optional[int] = None,
                        hot_links: Optional[Tuple[int, ...]] = None,
                        ) -> InternetPath:
    """Construct the emulated 17-hop path with per-run load levels.

    ``hops``/``hot_links`` default to the module constants *at call
    time*, so tests and ablations can adjust the module-level knobs.
    """
    if hops is None:
        hops = HOPS
    if hot_links is None:
        hot_links = HOT_LINKS
    sim = Simulator()
    topo = Topology(sim)
    rng = RngRegistry(seed)
    load_rng = rng.stream("load-levels")

    ua_host = topo.add_host("UA")
    nih_host = topo.add_host("NIH")
    routers = [topo.add_router(f"R{i}") for i in range(hops - 1)]

    # Access links: campus Ethernet-class.
    topo.add_link(ua_host, routers[0], bandwidth=mbps(10), delay=ms(0.5),
                  queue_capacity=None, name="ua-access")
    topo.add_link(routers[-1], nih_host, bandwidth=mbps(10), delay=ms(0.5),
                  queue_capacity=None, name="nih-access")
    interior = []
    for i in range(len(routers) - 1):
        buffers = HOT_BUFFERS if i in hot_links else INTERIOR_BUFFERS
        link = topo.add_link(routers[i], routers[i + 1],
                             bandwidth=INTERIOR_BANDWIDTH,
                             delay=INTERIOR_DELAY,
                             queue_capacity=buffers,
                             name=f"hop{i}")
        interior.append(link)

    path = InternetPath(sim=sim, topology=topo, rng=rng, ua=None, nih=None)
    # Cross traffic on the hot and cool links only; the rest are clean.
    for i in range(len(interior)):
        if i in hot_links:
            lo, hi = HOT_LOAD_RANGE
        elif i in COOL_LINKS:
            lo, hi = COOL_LOAD_RANGE
        else:
            path.load_profile.append(0.0)
            continue
        src = topo.add_host(f"X{i}src")
        dst = topo.add_host(f"X{i}dst")
        topo.add_link(src, routers[i], bandwidth=mbps(10), delay=ms(0.2),
                      queue_capacity=None, name=f"x{i}in")
        topo.add_link(routers[i + 1], dst, bandwidth=mbps(10), delay=ms(0.2),
                      queue_capacity=None, name=f"x{i}out")
        load = load_rng.uniform(lo, hi)
        path.load_profile.append(load)
        # Steady component: Poisson aggregate at the drawn load.
        path.cross_sources.append(CrossTrafficSource(
            src, dst.name, rng.stream(f"cross/{i}"),
            burst_rate=INTERIOR_BANDWIDTH * load,
            packet_size=1024, steady=True))
        if i in hot_links:
            # Loss bursts on the hot links only.
            path.cross_sources.append(CrossTrafficSource(
                src, dst.name, rng.stream(f"burst/{i}"),
                burst_rate=INTERIOR_BANDWIDTH * BURST_RATE_FACTOR,
                packet_size=1024, on_mean=BURST_ON_MEAN,
                off_mean=load_rng.uniform(*BURST_OFF_RANGE)))

    topo.build_routes()
    path.ua = TCPProtocol(ua_host, rng=random.Random(
        rng.stream("timer/ua").random()))
    path.nih = TCPProtocol(nih_host, rng=random.Random(
        rng.stream("timer/nih").random()))
    return path


def run_internet_transfer(cc: CCSpec, size: int = kb(1024), seed: int = 0,
                          warmup: float = 3.0,
                          horizon: float = 600.0,
                          tracer: Optional[ConnectionTracer] = None,
                          ) -> TransferResult:
    """One UA→NIH transfer under this seed's cross-traffic conditions."""
    path = build_internet_path(seed=seed)
    factory = resolve_cc(cc)
    BulkSink(path.nih, DFLT.TRANSFER_PORT)
    path.start_cross_traffic()
    holder = [None]

    def _start() -> None:
        holder[0] = BulkTransfer(path.ua, "NIH", DFLT.TRANSFER_PORT, size,
                                 cc=factory(), tracer=tracer)

    path.sim.schedule_anon(warmup, _start)

    # Run until the transfer completes (cross traffic never drains the
    # event heap, so poll in slices).
    t = warmup
    while t < horizon:
        t = min(t + 10.0, horizon)
        path.sim.run(until=t)
        if holder[0] is not None and holder[0].done:
            break
    path.stop_cross_traffic()
    name = cc if isinstance(cc, str) else "custom"
    return TransferResult.from_transfer(holder[0], name)
