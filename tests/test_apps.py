"""Tests for the application layer: bulk transfers and cross traffic."""

import random

import pytest

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.apps.crosstraffic import CrossTrafficSource
from repro.errors import ConfigurationError
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.units import kbps, ms

from helpers import make_pair


class TestBulkTransfer:
    def test_completes_and_reports(self):
        pair = make_pair()
        sink = BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 20 * 1024)
        pair.sim.run(until=30.0)
        assert transfer.done
        assert transfer.finish_time is not None
        assert sink.bytes_received == 20 * 1024
        assert transfer.conn.stats.throughput_kbps() > 0
        assert transfer.conn.stats.coarse_timeouts == 0

    def test_on_done_callback(self):
        pair = make_pair()
        BulkSink(pair.proto_b, 9000)
        done = []
        BulkTransfer(pair.proto_a, "B", 9000, 4096, on_done=done.append)
        pair.sim.run(until=10.0)
        assert len(done) == 1

    def test_zero_bytes_rejected(self):
        pair = make_pair()
        with pytest.raises(ValueError):
            BulkTransfer(pair.proto_a, "B", 9000, 0)

    def test_transfer_larger_than_sockbuf(self):
        pair = make_pair()
        BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 200 * 1024,
                                sndbuf=16 * 1024, rcvbuf=16 * 1024)
        pair.sim.run(until=120.0)
        assert transfer.done

    def test_keep_open_when_requested(self):
        pair = make_pair()
        BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 4096,
                                close_when_done=False)
        pair.sim.run(until=10.0)
        assert transfer.done
        assert not transfer.conn.fin_sent

    def test_delayed_start_via_scheduler(self):
        pair = make_pair()
        BulkSink(pair.proto_b, 9000)
        holder = []
        pair.sim.schedule(2.0, lambda: holder.append(
            BulkTransfer(pair.proto_a, "B", 9000, 4096)))
        pair.sim.run(until=30.0)
        assert holder[0].done
        assert holder[0].conn.stats.open_time >= 2.0


class TestCrossTraffic:
    def _wire(self):
        sim = Simulator()
        topo = Topology(sim)
        src = topo.add_host("S")
        dst = topo.add_host("D")
        topo.add_link(src, dst, bandwidth=kbps(100), delay=ms(5),
                      queue_capacity=50)
        topo.build_routes()
        return sim, src, dst

    def test_steady_source_rate(self):
        sim, src, dst = self._wire()
        source = CrossTrafficSource(src, "D", random.Random(1),
                                    burst_rate=kbps(50), packet_size=500,
                                    steady=True)
        source.start()
        sim.run(until=60.0)
        source.stop()
        rate = source.bytes_sent / 60.0
        assert rate == pytest.approx(kbps(50), rel=0.15)
        assert source.average_rate == kbps(50)

    def test_onoff_duty_cycle(self):
        sim, src, dst = self._wire()
        source = CrossTrafficSource(src, "D", random.Random(2),
                                    burst_rate=kbps(80), packet_size=500,
                                    on_mean=0.5, off_mean=1.5)
        source.start()
        sim.run(until=120.0)
        source.stop()
        rate = source.bytes_sent / 120.0
        # Long-run average: burst_rate * 0.25 duty.
        assert rate == pytest.approx(source.average_rate, rel=0.35)

    def test_stop_halts_emission(self):
        sim, src, dst = self._wire()
        source = CrossTrafficSource(src, "D", random.Random(3),
                                    burst_rate=kbps(50), steady=True)
        source.start()
        sim.run(until=5.0)
        source.stop()
        sent = source.packets_sent
        sim.run(until=10.0)
        assert source.packets_sent == sent

    def test_parameter_validation(self):
        sim, src, dst = self._wire()
        with pytest.raises(ConfigurationError):
            CrossTrafficSource(src, "D", random.Random(4), burst_rate=0)
        with pytest.raises(ConfigurationError):
            CrossTrafficSource(src, "D", random.Random(4), burst_rate=1,
                               packet_size=0)

    def test_packets_reach_destination(self):
        sim, src, dst = self._wire()
        got = []
        dst.protocol_handler = lambda p: got.append(p.uid)
        source = CrossTrafficSource(src, "D", random.Random(5),
                                    burst_rate=kbps(20), steady=True)
        source.start()
        sim.run(until=10.0)
        source.stop()
        assert len(got) > 0
