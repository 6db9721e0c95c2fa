"""Cross-cutting invariants and miscellaneous coverage."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.core.registry import make_cc
from repro.core.reno import RenoCC
from repro.trace.records import Kind
from repro.trace.tracer import ConnectionTracer
from repro.trafficgen import TrafficServer
from repro.trafficgen.conversations import TelnetConversation

from helpers import make_pair


class TestWindowInvariants:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        cc_name=st.sampled_from(("reno", "vegas", "newreno")),
        drops=st.sets(st.integers(min_value=1, max_value=60), max_size=10),
    )
    def test_cwnd_never_below_one_segment(self, cc_name, drops):
        pair = make_pair(queue_capacity=20)
        tracer = ConnectionTracer("w")
        BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 48 * 1024,
                                cc=make_cc(cc_name), tracer=tracer)
        queue = pair.forward_queue
        original = queue.offer
        state = {"n": 0}

        def lossy(packet, now):
            if packet.size > 500:
                state["n"] += 1
                if state["n"] in drops:
                    return False
            return original(packet, now)

        queue.offer = lossy
        pair.sim.run(until=600.0)
        assert transfer.done
        mss = transfer.conn.mss
        for record in tracer.of_kind(Kind.CWND):
            assert record.a >= mss
        for record in tracer.of_kind(Kind.SSTHRESH):
            assert record.a >= 2 * mss

    def test_flight_never_negative_or_beyond_sndbuf(self):
        pair = make_pair(queue_capacity=5)
        tracer = ConnectionTracer("f")
        BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 200 * 1024,
                                sndbuf=20 * 1024, rcvbuf=20 * 1024,
                                tracer=tracer)
        pair.sim.run(until=120.0)
        assert transfer.done
        for record in tracer.of_kind(Kind.FLIGHT):
            assert 0 <= record.a <= 20 * 1024 + 2  # (+FIN/SYN slack)


class TestTrafficRobustness:
    def test_telnet_conversation_survives_loss(self):
        pair = make_pair(queue_capacity=30)
        rng = random.Random(3)
        TrafficServer(pair.proto_b, rng, RenoCC)
        conv = TelnetConversation(pair.proto_a, "B", rng, RenoCC)
        conv.start()
        # Randomly drop 5% of everything in both directions.
        loss_rng = random.Random(17)
        for node in ("R1", "R2"):
            queue = pair.bottleneck.channel_from(
                pair.topology.router(node)).queue
            original = queue.offer

            def lossy(packet, now, original=original):
                if loss_rng.random() < 0.05:
                    return False
                return original(packet, now)

            queue.offer = lossy
        pair.sim.run(until=3000.0)
        assert conv.finished
        assert conv.sent == conv.params.keystrokes

    def test_generator_survives_mid_run_loss(self):
        from repro.trafficgen import TrafficGenerator

        pair = make_pair(queue_capacity=8)
        rng = random.Random(4)
        TrafficServer(pair.proto_b, rng, RenoCC)
        generator = TrafficGenerator(pair.proto_a, "B", rng, RenoCC,
                                     arrival_mean=0.4)
        generator.start()
        pair.sim.run(until=40.0)
        generator.stop()
        # Under a congested 8-buffer bottleneck conversations still
        # finish (nothing deadlocks).
        assert generator.finished_count() > 10


class TestProtocolMisc:
    def test_port_allocation_skips_listeners(self):
        pair = make_pair()
        pair.proto_a.listen(1024)
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000)
        assert conn.flow.local_port != 1024

    def test_internet_path_load_profile_deterministic(self):
        from repro.experiments.internet import build_internet_path

        a = build_internet_path(seed=7)
        b = build_internet_path(seed=7)
        assert a.load_profile == b.load_profile
        c = build_internet_path(seed=8)
        assert a.load_profile != c.load_profile

    def test_cross_traffic_average_rate_matches_profile(self):
        from repro.experiments.internet import build_internet_path

        path = build_internet_path(seed=1)
        assert path.cross_sources
        for source in path.cross_sources:
            assert source.average_rate > 0
