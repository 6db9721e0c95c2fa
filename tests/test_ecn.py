"""Tests for explicit congestion notification (RED marking + TCP)."""

import random

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.core.reno import RenoCC
from repro.core.vegas import VegasCC
from repro.net.packet import Packet
from repro.net.red import REDQueue
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.tcp.protocol import TCPProtocol
from repro.units import kbps, mb, ms

from fakes import FakeConnection


class TestREDMarking:
    def _queue(self, **kwargs):
        defaults = dict(capacity=20, rng=random.Random(1), min_th=2,
                        max_th=6, max_p=0.5, weight=1.0, ecn=True)
        defaults.update(kwargs)
        return REDQueue(**defaults)

    def test_capable_packets_marked_not_dropped(self):
        queue = self._queue()
        outcomes = []
        for i in range(20):
            packet = Packet("A", "B", None, 1000, ecn_capable=True)
            outcomes.append((queue.offer(packet, 0.001 * i),
                             packet.ecn_marked))
            if len(queue) > 5:
                queue.poll(0.001 * i)
        assert queue.marks > 0
        assert queue.early_drops == 0
        # Marked packets were still accepted.
        assert all(accepted for accepted, marked in outcomes if marked)

    def test_incapable_packets_still_dropped(self):
        queue = self._queue()
        dropped = 0
        for i in range(20):
            packet = Packet("A", "B", None, 1000)  # not ECN-capable
            if not queue.offer(packet, 0.001 * i):
                dropped += 1
            if len(queue) > 5:
                queue.poll(0.001 * i)
        assert dropped > 0
        assert queue.marks == 0

    def test_full_queue_drops_even_capable(self):
        queue = self._queue(capacity=3)
        results = [queue.offer(Packet("A", "B", None, 1000,
                                      ecn_capable=True), 0.0)
                   for _ in range(10)]
        assert not all(results)


class TestRenoEcnResponse:
    def test_halves_once_per_window(self):
        conn = FakeConnection()
        cc = RenoCC()
        cc.attach(conn)
        cc.cwnd = 16 * conn.mss
        conn.snd_nxt = 16 * conn.mss
        cc.on_ecn_echo(1.0)
        assert cc.cwnd == 8 * conn.mss
        assert cc.ecn_reactions == 1
        # Further echoes within the same window are ignored.
        cc.on_ecn_echo(1.1)
        assert cc.cwnd == 8 * conn.mss
        # After the window is acked, a new echo acts again.
        conn.snd_una = conn.snd_nxt
        conn.snd_nxt += 8 * conn.mss
        cc.on_ecn_echo(2.0)
        assert cc.ecn_reactions == 2

    def test_no_reaction_in_recovery(self):
        conn = FakeConnection()
        cc = RenoCC()
        cc.attach(conn)
        cc.cwnd = 8 * conn.mss
        cc.in_recovery = True
        cc.on_ecn_echo(1.0)
        assert cc.ecn_reactions == 0


class TestEcnEndToEnd:
    #: RED's drop/mark seeds: this file's own, and the one the former
    #: RED+ECN-vs-Vegas comparison ran.
    SEEDS = (5, 11)

    def _run(self, ecn, cc=RenoCC, red=True, seed=5):
        sim = Simulator()
        topo = Topology(sim)
        a, b = topo.add_host("A"), topo.add_host("B")
        r1, r2 = topo.add_router("R1"), topo.add_router("R2")
        topo.add_lan([a, r1])
        topo.add_lan([r2, b])
        rng = random.Random(seed)
        factory = lambda name: REDQueue(10, rng, min_th=2, max_th=8,
                                        max_p=0.1, weight=0.02, ecn=ecn,
                                        name=name)
        link = topo.add_link(r1, r2, bandwidth=kbps(200), delay=ms(50),
                             queue_capacity=10,
                             queue_factory=factory if red else None)
        topo.build_routes()
        pa, pb = TCPProtocol(a), TCPProtocol(b)
        BulkSink(pb, 9000, ecn=ecn)
        transfer = BulkTransfer(pa, "B", 9000, mb(1), cc=cc(), ecn=ecn)
        sim.run(until=180.0)
        assert transfer.done
        return transfer, link.channel_from(r1).queue

    def test_ecn_reduces_retransmissions_under_red(self):
        for seed in self.SEEDS:
            plain, plain_queue = self._run(ecn=False, seed=seed)
            ecn, ecn_queue = self._run(ecn=True, seed=seed)
            assert ecn_queue.marks > 0
            assert ecn.conn.ecn_echoes_received > 0
            assert ecn.conn.cc.ecn_reactions > 0
            # Marks replace early drops, so fewer bytes get retransmitted.
            assert (ecn.conn.stats.retransmitted_kb()
                    < plain.conn.stats.retransmitted_kb())

    def test_ecn_does_not_hurt_throughput(self):
        # Vegas over drop-tail needs no router support: no losses, and
        # more throughput than Reno over RED with or without marks.
        vegas, _ = self._run(ecn=False, cc=VegasCC, red=False)
        assert vegas.conn.stats.retransmitted_kb() <= 2.0
        for seed in self.SEEDS:
            plain, _ = self._run(ecn=False, seed=seed)
            ecn, _ = self._run(ecn=True, seed=seed)
            assert (ecn.conn.stats.throughput_kbps()
                    >= 0.9 * plain.conn.stats.throughput_kbps())
            assert (vegas.conn.stats.throughput_kbps()
                    > max(plain.conn.stats.throughput_kbps(),
                          ecn.conn.stats.throughput_kbps()))
