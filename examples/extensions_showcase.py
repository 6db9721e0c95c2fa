#!/usr/bin/env python3
"""Showcase of the beyond-the-paper extensions.

Runs the era's congestion-control design space on one bottleneck:

* plain Reno / NewReno / Vegas,
* SACK (§6's selective acknowledgements) alone and with Vegas,
* RED at the router, with and without ECN marking,

under a scattered-multi-loss scenario that separates the recovery
strategies, then exports the Vegas trace as JSON/CSV for external
plotting.

Run:  python examples/extensions_showcase.py
"""

import os
import random
import tempfile

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.core.registry import make_cc
from repro.net.red import REDQueue
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.tcp.protocol import TCPProtocol
from repro.trace.export import export_csv, export_json
from repro.trace.graphs import build_trace_graph
from repro.trace.tracer import ConnectionTracer
from repro.units import kb, kbps, ms


def run_variant(cc_name, ecn=False, red=False,
                drops=(5, 9, 13, 17), tracer=None):
    sim = Simulator()
    topo = Topology(sim)
    a, b = topo.add_host("A"), topo.add_host("B")
    r1, r2 = topo.add_router("R1"), topo.add_router("R2")
    topo.add_lan([a, r1])
    topo.add_lan([r2, b])
    factory = None
    if red:
        rng = random.Random(3)
        factory = lambda name: REDQueue(10, rng, min_th=2, max_th=8,
                                        ecn=ecn, weight=0.02, name=name)
    link = topo.add_link(r1, r2, bandwidth=kbps(200), delay=ms(50),
                         queue_capacity=10, queue_factory=factory)
    topo.build_routes()
    pa, pb = TCPProtocol(a), TCPProtocol(b)
    BulkSink(pb, 9000, ecn=ecn)
    transfer = BulkTransfer(pa, "B", 9000, kb(256), cc=make_cc(cc_name),
                            ecn=ecn, tracer=tracer)
    if drops:
        queue = link.channel_from(r1).queue
        original = queue.offer
        state = {"n": 0}
        dropset = set(drops)

        def lossy(packet, now):
            if now > 0.8 and packet.size > 500:
                state["n"] += 1
                if state["n"] in dropset:
                    return False
            return original(packet, now)

        queue.offer = lossy
    sim.run(until=120.0)
    return transfer.conn.stats


def main():
    print("256 KB transfer, four scattered losses, 200 KB/s bottleneck\n")
    print(f"{'variant':<22} {'time s':>7} {'timeouts':>9} {'retx KB':>8}")
    for label, kwargs in (
        ("reno", dict(cc_name="reno")),
        ("newreno", dict(cc_name="newreno")),
        ("reno + SACK", dict(cc_name="reno-sack")),
        ("reno + RED", dict(cc_name="reno", red=True, drops=())),
        ("reno + RED + ECN", dict(cc_name="reno", red=True, ecn=True,
                                  drops=())),
        ("vegas", dict(cc_name="vegas")),
        ("vegas + SACK", dict(cc_name="vegas-sack")),
        ("vegas (paced SS)", dict(cc_name="vegas-paced")),
    ):
        stats = run_variant(**kwargs)
        print(f"{label:<22} {stats.transfer_seconds:7.2f} "
              f"{stats.coarse_timeouts:9d} {stats.retransmitted_kb():8.1f}")

    # Export a Vegas trace for external plotting.
    tracer = ConnectionTracer("vegas-example")
    run_variant(cc_name="vegas", tracer=tracer)
    graph = build_trace_graph(tracer, name="vegas-example",
                              alpha_buffers=2, beta_buffers=4)
    outdir = tempfile.mkdtemp(prefix="repro-trace-")
    json_path = export_json(graph, os.path.join(outdir, "vegas.json"))
    csv_files = export_csv(graph, outdir)
    print(f"\nVegas trace exported: {json_path} (+{len(csv_files)} CSVs in "
          f"{outdir})")


if __name__ == "__main__":
    main()
