"""Tests for the RED queueing discipline."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.red import REDQueue
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.units import kbps, ms


class P:
    size = 1000


class TestREDQueue:
    def _queue(self, **kwargs):
        defaults = dict(capacity=20, rng=random.Random(1),
                        min_th=3, max_th=9, max_p=0.1, weight=0.5)
        defaults.update(kwargs)
        return REDQueue(**defaults)

    def test_no_drops_below_min_threshold(self):
        queue = self._queue()
        for i in range(3):
            assert queue.offer(P(), float(i) * 0.001)
        assert queue.dropped == 0

    def test_forced_drops_above_max_threshold(self):
        queue = self._queue(weight=1.0)  # avg == instantaneous
        accepted = sum(queue.offer(P(), 0.001 * i) for i in range(30))
        # Once the average passes max_th (9), everything drops.
        assert queue.early_drops + queue.forced_drops > 0
        assert accepted <= 11

    def test_probabilistic_region_drops_some(self):
        queue = self._queue(weight=1.0, max_p=0.5)
        outcomes = []
        # Hold the queue between thresholds by draining as we fill.
        for i in range(200):
            outcomes.append(queue.offer(P(), 0.001 * i))
            if len(queue) > 6:
                queue.poll(0.001 * i)
        assert any(outcomes) and not all(outcomes)
        assert 0 < queue.early_drops < 200

    def test_idle_period_decays_average(self):
        queue = self._queue(weight=0.5, mean_packet_time=0.01)
        for i in range(8):
            queue.offer(P(), 0.001 * i)
        avg_loaded = queue.avg
        while queue.poll(0.01) is not None:
            pass
        queue.offer(P(), 10.0)  # long idle gap
        assert queue.avg < avg_loaded

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            self._queue(min_th=5, max_th=5)
        with pytest.raises(ConfigurationError):
            self._queue(max_p=0.0)
        with pytest.raises(ConfigurationError):
            self._queue(weight=0.0)

    def test_drop_accounting_consistent(self):
        queue = self._queue(weight=1.0)
        for i in range(50):
            queue.offer(P(), 0.001 * i)
        assert queue.dropped == queue.early_drops + queue.forced_drops
        assert queue.dropped_bytes == queue.dropped * 1000
        assert len(queue.drops) == queue.dropped


class TestREDEdgeCases:
    """Boundary parameters and the cold-start averaging regime."""

    def _queue(self, **kwargs):
        defaults = dict(capacity=20, rng=random.Random(1),
                        min_th=3, max_th=9, max_p=0.1, weight=0.5)
        defaults.update(kwargs)
        return REDQueue(**defaults)

    def test_min_equals_max_threshold_rejected(self):
        # A zero-width probabilistic region would divide by zero in
        # the drop-probability ramp; the constructor must refuse it.
        with pytest.raises(ConfigurationError):
            self._queue(min_th=5.0, max_th=5.0)
        with pytest.raises(ConfigurationError):
            self._queue(min_th=9.0, max_th=3.0)

    def test_zero_min_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            self._queue(min_th=0.0, max_th=9.0)
        with pytest.raises(ConfigurationError):
            self._queue(min_th=-1.0, max_th=9.0)

    def test_boundary_parameters_accepted(self):
        # max_p == 1 and weight == 1 are the inclusive upper bounds.
        queue = self._queue(max_p=1.0, weight=1.0)
        assert queue.offer(P(), 0.0)

    def test_zero_avg_warmup_suppresses_early_drops(self):
        """A cold queue must not early-drop: the EWMA starts at zero
        and with a small weight stays below min_th for many packets
        even when the instantaneous depth is far above it."""
        queue = self._queue(weight=0.002, min_th=3, max_th=9)
        for i in range(12):  # depth 12 > max_th, but avg ~= 0
            assert queue.offer(P(), 0.001 * i)
        assert queue.early_drops == 0
        assert queue.avg < queue.min_th

    def test_warmup_count_reset_below_min(self):
        # Below min_th the inter-drop counter re-arms at -1 so the
        # first packet of the next congestion epoch is never penalised
        # by a stale count.
        queue = self._queue(weight=1.0)
        for i in range(12):
            queue.offer(P(), 0.001 * i)
        while queue.poll(1.0) is not None:
            pass
        queue._update_avg(10.0)
        assert queue.avg < queue.min_th
        queue.offer(P(), 10.0)
        assert queue._count_since_drop == -1

    def test_ecn_marks_instead_of_early_drops(self):
        queue = self._queue(weight=1.0, max_p=1.0, ecn=True)
        packets = [Packet("A", "B", None, 1000, ecn_capable=True)
                   for _ in range(12)]
        for i, p in enumerate(packets):
            queue.offer(p, 0.001 * i)
        assert queue.marks > 0
        assert queue.early_drops == 0
        assert queue.marks == sum(p.ecn_marked for p in packets)

    def test_ecn_falls_back_to_drop_when_full(self):
        # A full queue cannot hold the packet, mark or not: the mark
        # substitution only applies while there is room.
        queue = self._queue(capacity=5, weight=1.0, max_p=1.0, ecn=True)
        packets = [Packet("A", "B", None, 1000, ecn_capable=True)
                   for _ in range(10)]
        for i, p in enumerate(packets):
            queue.offer(p, 0.001 * i)
        assert queue.dropped > 0
        assert len(queue) <= queue.capacity


class TestREDOnLink:
    def test_red_link_keeps_average_queue_short(self):
        """Reno over RED holds a shorter average queue than over
        drop-tail — the router-side analogue of what Vegas does
        end-to-end.  Vegas over drop-tail never fills the queue, loses
        nothing, and outruns Reno over either."""
        from repro.apps.bulk import BulkSink, BulkTransfer
        from repro.core.vegas import VegasCC
        from repro.tcp.protocol import TCPProtocol
        from repro.trace.tracer import RouterTracer

        def run(size, queue_factory, cc=None):
            sim = Simulator()
            topo = Topology(sim)
            a, b = topo.add_host("A"), topo.add_host("B")
            r1, r2 = topo.add_router("R1"), topo.add_router("R2")
            topo.add_lan([a, r1])
            topo.add_lan([r2, b])
            link = topo.add_link(r1, r2, bandwidth=kbps(200), delay=ms(50),
                                 queue_capacity=10,
                                 queue_factory=queue_factory)
            topo.build_routes()
            pa, pb = TCPProtocol(a), TCPProtocol(b)
            BulkSink(pb, 9000)
            transfer = BulkTransfer(pa, "B", 9000, size, cc=cc)
            tracer = RouterTracer(link.channel_from(r1).queue)
            sim.run(until=120.0)
            assert transfer.done
            return tracer, transfer.conn.stats

        # This test's own case, and the 1 MB one the former
        # RED-vs-Vegas comparison ran.
        for size, seed in ((512 * 1024, 7), (1024 * 1024, 11)):
            rng = random.Random(seed)
            droptail, reno = run(size, None)
            red, reno_red = run(size, lambda name: REDQueue(
                10, rng, min_th=2, max_th=8, max_p=0.1, weight=0.02,
                name=name))
            vegas_queue, vegas = run(size, None, VegasCC())
            assert red.mean_depth(1.0) < droptail.mean_depth(1.0)
            # "Reno increases its window size until there are losses —
            # which means all the router buffers are being used" (§6).
            assert droptail.max_depth() >= 10
            assert vegas_queue.max_depth() < droptail.max_depth()
            assert vegas.throughput_kbps() > max(reno.throughput_kbps(),
                                                 reno_red.throughput_kbps())
            assert vegas.retransmitted_kb() <= 2.0
