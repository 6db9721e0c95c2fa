"""Tests for the tcplib-style TRAFFIC workload generator."""

import gc
import random
import weakref
from unittest import mock

from repro.core.reno import RenoCC
from repro.sim.rng import RngRegistry
from repro.trafficgen import distributions as D
from repro.trafficgen.conversations import (
    TOTALS,
    Conversation,
    FtpConversation,
    NntpConversation,
    SmtpConversation,
    TelnetConversation,
)
from repro.trafficgen.traffic import TrafficGenerator, TrafficServer

from helpers import make_pair


def wire_traffic(pair, seed=1, arrival_mean=0.3, **kwargs):
    rng = random.Random(seed)
    server = TrafficServer(pair.proto_b, rng, RenoCC)
    generator = TrafficGenerator(pair.proto_a, "B", rng, RenoCC,
                                 arrival_mean=arrival_mean, **kwargs)
    return server, generator


class TestDistributions:
    def test_telnet_params_in_range(self):
        rng = RngRegistry(1).stream("t")
        for _ in range(200):
            p = D.draw_telnet(rng)
            assert 3 <= p.keystrokes <= 400
            assert p.think_mean > 0.2

    def test_ftp_params_match_paper_shape(self):
        """The paper: FTP expects number of items, control segment
        size, and the item sizes."""
        rng = RngRegistry(2).stream("f")
        for _ in range(200):
            p = D.draw_ftp(rng)
            assert 1 <= p.items <= 20
            assert len(p.item_sizes) == p.items
            assert 32 <= p.control_segment_size < 96
            assert all(256 <= s <= 1024 * 1024 for s in p.item_sizes)

    def test_smtp_sizes(self):
        rng = RngRegistry(3).stream("s")
        sizes = [D.draw_smtp(rng).message_size for _ in range(200)]
        assert all(128 <= s <= 256 * 1024 for s in sizes)

    def test_nntp_articles(self):
        rng = RngRegistry(4).stream("n")
        for _ in range(100):
            p = D.draw_nntp(rng)
            assert len(p.article_sizes) == p.articles

    def test_mix_covers_four_types(self):
        assert set(D.DEFAULT_MIX) == {"telnet", "ftp", "smtp", "nntp"}
        assert abs(sum(D.DEFAULT_MIX.values()) - 1.0) < 1e-9


class TestConversations:
    def test_smtp_runs_to_completion(self):
        pair = make_pair(queue_capacity=30)
        rng = random.Random(7)
        TrafficServer(pair.proto_b, rng, RenoCC)
        conv = SmtpConversation(pair.proto_a, "B", rng, RenoCC)
        conv.start()
        pair.sim.run(until=120.0)
        assert conv.finished
        assert conv.duration > 0
        assert conv.bytes_offered == conv.params.message_size

    def test_telnet_measures_response_times(self):
        pair = make_pair(queue_capacity=30)
        rng = random.Random(8)
        TrafficServer(pair.proto_b, rng, RenoCC)
        conv = TelnetConversation(pair.proto_a, "B", rng, RenoCC)
        conv.start()
        pair.sim.run(until=600.0)
        assert conv.finished
        assert len(conv.response_times) > 0
        # Response includes at least one bottleneck round trip (100 ms).
        assert min(conv.response_times) > 0.1

    def test_ftp_transfers_every_item(self):
        pair = make_pair(queue_capacity=30)
        rng = random.Random(9)
        TrafficServer(pair.proto_b, rng, RenoCC)
        conv = FtpConversation(pair.proto_a, "B", rng, RenoCC)
        conv.start()
        pair.sim.run(until=600.0)
        assert conv.finished
        # Control connection + one data connection per item, each
        # accepted by its listener and let go of once closed.
        listeners = pair.proto_b.listeners
        assert listeners[D.PORTS["ftp"]].accepted == 1
        assert listeners[D.PORTS["ftp-data"]].accepted == conv.params.items
        assert conv.connections == [] and conv.conn is None
        assert pair.proto_a.connections == pair.proto_b.connections == {}
        # One command per item went over the control connection.
        control_bytes = conv.params.items * conv.params.control_segment_size
        data_bytes = conv.total("app_bytes_acked") - control_bytes
        assert data_bytes == sum(conv.params.item_sizes)

    def test_nntp_pushes_all_articles(self):
        pair = make_pair(queue_capacity=30)
        rng = random.Random(10)
        TrafficServer(pair.proto_b, rng, RenoCC)
        conv = NntpConversation(pair.proto_a, "B", rng, RenoCC)
        conv.start()
        pair.sim.run(until=600.0)
        assert conv.finished
        assert conv.connections == [] and conv.conn is None
        assert pair.proto_a.connections == pair.proto_b.connections == {}
        assert conv.total("app_bytes_acked") == sum(conv.params.article_sizes)


class TestGenerator:
    def test_conversations_launch_over_time(self):
        pair = make_pair(queue_capacity=30)
        server, generator = wire_traffic(pair, arrival_mean=0.5)
        generator.start()
        pair.sim.run(until=20.0)
        generator.stop()
        assert generator.started_count() >= 10
        assert sum(generator.started_by_type.values()) == \
            generator.started_count()

    def test_deterministic_given_seed(self):
        counts = []
        for _ in range(2):
            pair = make_pair(queue_capacity=30)
            server, generator = wire_traffic(pair, seed=42)
            generator.start()
            pair.sim.run(until=15.0)
            generator.stop()
            counts.append(dict(generator.started_by_type))
        assert counts[0] == counts[1]

    def test_max_conversations_cap(self):
        pair = make_pair(queue_capacity=30)
        server, generator = wire_traffic(pair, max_conversations=5)
        generator.start()
        pair.sim.run(until=60.0)
        assert generator.started_count() <= 5

    def test_throughput_and_retransmit_accounting(self):
        pair = make_pair(queue_capacity=30)
        server, generator = wire_traffic(pair, arrival_mean=0.4)
        generator.start()
        pair.sim.run(until=30.0)
        generator.stop()
        assert generator.total("app_bytes_acked") > 0
        assert generator.throughput_kbps(0.0, 30.0) > 0
        assert generator.total_retransmitted_kb() >= 0.0

    def test_custom_mix_respected(self):
        pair = make_pair(queue_capacity=30)
        server, generator = wire_traffic(pair, arrival_mean=0.2,
                                         mix={"smtp": 1.0})
        generator.start()
        pair.sim.run(until=20.0)
        generator.stop()
        assert generator.started_by_type["smtp"] == generator.started_count()
        assert generator.started_by_type["smtp"] > 0

    def test_totals_fold_every_endpoint_opened(self):
        pair = make_pair(queue_capacity=5)
        opened = []
        connect = pair.proto_a.connect

        def keep(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        pair.proto_a.connect = keep
        server, generator = wire_traffic(pair, arrival_mean=0.2)
        generator.start()
        pair.sim.run(until=30.0)
        generator.stop()
        closed = [c for c in opened if c.is_closed]
        assert closed and len(closed) < len(opened)
        open_now = [c for conv in generator.live for c in conv.connections]
        assert sorted(map(id, open_now)) == sorted(
            id(c) for c in opened if not c.is_closed)
        for counter in TOTALS:
            assert generator.total(counter) == sum(
                getattr(c.stats, counter) for c in opened)
        assert generator.total("retransmitted_bytes") > 0
        retransmitted_kb = 0.0
        for conn in opened:
            retransmitted_kb += conn.stats.retransmitted_kb()
        assert generator.total_retransmitted_kb() == retransmitted_kb

    def test_closed_endpoints_are_freed(self):
        """With the cyclic collector off, as a cell runs, a closed
        endpoint is freed by refcounting alone once TRAFFIC lets go."""
        from repro.experiments.figure5 import build_figure5
        from repro.experiments.transfers import resolve_cc
        from repro.tcp.connection import TCPConnection

        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            net = build_figure5(buffers=10, seed=0)
            generator = net.start_traffic("Host1a", "Host1b",
                                          resolve_cc("vegas-1,3"),
                                          arrival_mean=0.1)
            net.sim.run(until=20.0)
            alive = [obj for obj in gc.get_objects()
                     if type(obj) is TCPConnection and obj.sim is net.sim]
        finally:
            if was_enabled:
                gc.enable()
        assert generator.finished_count() > 50
        assert alive and not [c for c in alive if c.is_closed]

    def test_spent_conversations_are_freed(self):
        """With the cyclic collector off, a conversation that has
        finished and closed its last endpoint is freed by refcounting:
        the generator keeps its counts and totals, not the object."""
        refs, stats = [], []
        init, real_open = Conversation.__init__, Conversation._open

        def tracking_init(conv, *args, **kwargs):
            init(conv, *args, **kwargs)
            refs.append(weakref.ref(conv))

        def keeping_stats(conv, port, **options):
            conn = real_open(conv, port, **options)
            stats.append(conn.stats)
            return conn

        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with mock.patch.object(Conversation, "__init__", tracking_init), \
                    mock.patch.object(Conversation, "_open", keeping_stats):
                pair = make_pair(queue_capacity=5)
                server, generator = wire_traffic(pair, arrival_mean=0.2)
                generator.start()
                pair.sim.run(until=30.0)
            alive = [ref() for ref in refs if ref() is not None]
        finally:
            if was_enabled:
                gc.enable()
        assert generator.started_count() == len(refs) > 50
        assert generator.finished_count() > len(generator.live) > 0
        assert alive == list(generator.live)
        assert all(not (c.finished and not c.connections) for c in alive)
        for counter in TOTALS:
            assert generator.total(counter) == sum(
                getattr(s, counter) for s in stats)
        assert generator.total("retransmitted_bytes") > 0
