"""Integration tests for TCP connections over the simulated network."""

import sys

import pytest

from repro.core.reno import RenoCC
from repro.errors import ProtocolError
from repro.tcp.connection import State
from repro.trace.records import Kind
from repro.trace.tracer import ConnectionTracer
from repro.units import kbps

from helpers import make_pair, run_transfer, run_transfer_and_sink


def drop_next(queue, count):
    """Force the next *count* offers to this queue to be dropped."""
    original = queue.offer
    state = {"left": count}

    def lossy(packet, now):
        if state["left"] > 0:
            state["left"] -= 1
            queue.dropped += 1
            queue.dropped_bytes += packet.size
            queue.drops.append((now, packet.size))
            return False
        return original(packet, now)

    queue.offer = lossy
    return state


class TestHandshake:
    def test_three_way_handshake(self):
        pair = make_pair()
        accepted = []
        pair.proto_b.listen(9000, on_accept=accepted.append)
        conn = pair.proto_a.connect("B", 9000)
        assert conn.state == State.SYN_SENT
        pair.sim.run(until=2.0)
        assert conn.state == State.ESTABLISHED
        assert accepted and accepted[0].state == State.ESTABLISHED
        assert conn.stats.established_time is not None
        assert conn.snd_una == 1  # SYN consumed and acknowledged

    def test_handshake_gives_rtt_sample(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        assert conn.fine_rtt.samples >= 1
        # SYN samples must not set BaseRTT (40 B vs data serialization).
        assert conn.fine_rtt.base_rtt is None

    def test_syn_retransmitted_after_loss(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        drop_next(pair.forward_queue, 1)  # lose the SYN
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=30.0)
        assert conn.state == State.ESTABLISHED
        assert conn.stats.coarse_timeouts >= 1

    def test_syn_to_unbound_port_is_dropped(self):
        pair = make_pair()
        conn = pair.proto_a.connect("B", 4242)
        pair.sim.run(until=3.0)
        assert conn.state == State.SYN_SENT
        assert pair.proto_b.segments_dropped >= 1


class TestDataTransfer:
    def test_small_transfer_completes(self):
        pair = make_pair()
        transfer = run_transfer(pair, 10 * 1024)
        assert transfer.done
        assert transfer.conn.stats.app_bytes_acked == 10 * 1024

    def test_large_transfer_delivers_exact_bytes(self):
        pair = make_pair(queue_capacity=30)
        from repro.apps.bulk import BulkSink, BulkTransfer
        sink = BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 200 * 1024)
        pair.sim.run(until=60.0)
        assert transfer.done
        assert sink.bytes_received == 200 * 1024

    def test_transfer_respects_send_window(self):
        pair = make_pair()
        transfer = run_transfer(pair, 100 * 1024, sndbuf=8 * 1024,
                                rcvbuf=8 * 1024)
        assert transfer.done
        conn = transfer.conn
        # Flight can never have exceeded the 8 KB buffers.
        assert conn.sendbuf.capacity == 8 * 1024

    def test_throughput_bounded_by_bottleneck(self):
        pair = make_pair(bandwidth=kbps(100), queue_capacity=30)
        transfer = run_transfer(pair, 100 * 1024)
        assert transfer.done
        assert transfer.conn.stats.throughput_kbps() <= 100.0

    def test_two_way_data_on_one_connection(self):
        pair = make_pair()
        echoed = []

        def on_accept(conn):
            conn.on_data = lambda c, n: c.app_send(n)  # echo server

        pair.proto_b.listen(9000, on_accept=on_accept)
        client = pair.proto_a.connect("B", 9000, nagle=False)
        client.on_data = lambda c, n: echoed.append(n)
        client.on_established = lambda c: c.app_send(100)
        pair.sim.run(until=5.0)
        assert sum(echoed) == 100


class TestLossRecovery:
    def test_fast_retransmit_recovers_single_loss(self):
        pair = make_pair(queue_capacity=30)
        from repro.apps.bulk import BulkSink, BulkTransfer
        BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 100 * 1024,
                                cc=RenoCC())
        # Let the window open, then lose exactly one data packet.
        pair.sim.run(until=1.0)
        drop_next(pair.forward_queue, 1)
        pair.sim.run(until=60.0)
        assert transfer.done
        stats = transfer.conn.stats
        assert stats.retransmit_segments >= 1
        assert stats.fast_retransmits >= 1

    def test_blackout_causes_coarse_timeout(self):
        pair = make_pair(queue_capacity=30)
        from repro.apps.bulk import BulkSink, BulkTransfer
        BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 100 * 1024,
                                cc=RenoCC())
        pair.sim.run(until=1.0)
        drop_next(pair.forward_queue, 25)  # wipe a whole window+
        pair.sim.run(until=300.0)
        assert transfer.done
        assert transfer.conn.stats.coarse_timeouts >= 1

    def test_receiver_never_delivers_duplicate_bytes(self):
        pair = make_pair(queue_capacity=5)
        from repro.apps.bulk import BulkSink, BulkTransfer
        sink = BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 300 * 1024,
                                cc=RenoCC())
        pair.sim.run(until=120.0)
        assert transfer.done
        assert sink.bytes_received == 300 * 1024  # exactly, despite retx


class TestClose:
    def test_fin_exchange_closes_both_ends(self):
        pair = make_pair()
        transfer, sink = run_transfer_and_sink(pair, 4096)
        assert transfer.conn.is_closed
        others = sink.connections
        assert others and all(c.is_closed for c in others)
        assert pair.proto_a.connections == pair.proto_b.connections == {}

    def test_simulation_drains_after_close(self):
        pair = make_pair()
        run_transfer(pair, 4096, until=300.0)
        # All timers stopped: nothing pending, the sim went quiet well
        # before the horizon.
        assert pair.sim.pending_events == 0
        assert pair.sim.now == 300.0  # clock advanced to horizon only

    def test_send_after_close_rejected(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        conn.close()
        with pytest.raises(ProtocolError):
            conn.app_send(10)

    def test_close_flushes_queued_data_first(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        conn.app_send(30 * 1024)
        conn.close()
        pair.sim.run(until=30.0)
        assert conn.is_closed
        assert conn.stats.app_bytes_acked == 30 * 1024


class TestSegmentBookkeeping:
    """The §3.1 per-segment clocks and markers live only while segments
    are outstanding: marker sets are made on first use and everything
    is released when the endpoint closes."""

    @staticmethod
    def _transfer(pair, nbytes, **options):
        """One transfer; returns it and both its endpoints."""
        transfer, sink = run_transfer_and_sink(pair, nbytes, **options)
        assert len(sink.connections) == 1
        return transfer, [transfer.conn] + sink.connections

    def test_clean_transfer_allocates_no_marker_set(self):
        pair = make_pair(queue_capacity=50)
        # Kept open: a marker set, once made, would still be here.
        transfer, endpoints = self._transfer(pair, 64 * 1024,
                                             close_when_done=False)
        assert transfer.done and not transfer.conn.fin_sent
        assert transfer.conn.stats.retransmit_segments == 0
        for conn in endpoints:
            assert type(conn._ambiguous) is frozenset
            assert type(conn._probe_ends) is frozenset

    def test_closed_endpoints_release_their_clocks(self):
        pair = make_pair(queue_capacity=50)
        transfer, endpoints = self._transfer(pair, 100 * 1024)
        # A window this size grows the clock table past its first size.
        assert transfer.conn.stats.segments_sent > 20
        blackhole = make_pair()
        blackhole.forward_queue.offer = lambda p, now: False
        aborted = blackhole.proto_a.connect("B", 9999)
        blackhole.sim.run(until=3000.0)
        assert aborted.aborted
        assert pair.proto_a.connections == pair.proto_b.connections == {}
        assert blackhole.proto_a.connections == {}
        for conn in endpoints + [aborted]:
            assert conn.is_closed
            assert conn._send_times == {}
            assert sys.getsizeof(conn._send_times) == sys.getsizeof({})
            assert conn._ends_heap == []

    def test_lossy_transfer_drops_its_karn_markers_at_close(self):
        from repro.apps.bulk import BulkSink, BulkTransfer

        pair = make_pair(queue_capacity=30)
        BulkSink(pair.proto_b, 9000)
        transfer = BulkTransfer(pair.proto_a, "B", 9000, 100 * 1024,
                                cc=RenoCC())
        conn = transfer.conn
        pair.sim.run(until=1.0)
        drop_next(pair.forward_queue, 1)
        while conn.stats.retransmit_segments == 0:
            pair.sim.run(until=pair.sim.now + 0.05)
        assert not conn.is_closed
        assert type(conn._ambiguous) is set
        pair.sim.run(until=60.0)
        assert transfer.done and conn.is_closed
        assert type(conn._ambiguous) is frozenset and not conn._ambiguous


class TestNagle:
    def test_nagle_coalesces_small_writes(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        nagle_conn = pair.proto_a.connect("B", 9000, nagle=True)
        pair.sim.run(until=2.0)
        for _ in range(20):
            nagle_conn.app_send(10)
        pair.sim.run(until=10.0)
        # One initial small segment, the rest coalesced into few.
        assert nagle_conn.stats.segments_sent <= 5

    def test_nagle_off_sends_each_write(self):
        pair = make_pair()
        pair.proto_b.listen(9001)
        conn = pair.proto_a.connect("B", 9001, nagle=False)
        pair.sim.run(until=2.0)
        sent_before = conn.stats.segments_sent
        for _ in range(5):
            conn.app_send(10)
        pair.sim.run(until=10.0)
        assert conn.stats.segments_sent - sent_before == 5


class TestPersist:
    def test_zero_window_probe(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        conn.peer_wnd = 0  # simulate a zero-window advertisement
        conn.app_send(1000)
        before = conn.stats.segments_sent
        pair.sim.run(until=4.0)
        # Persist probes went out (1-byte segments on slow ticks).
        assert conn.stats.segments_sent > before


class TestTracing:
    def test_trace_records_cover_figure2_elements(self):
        pair = make_pair()
        tracer = ConnectionTracer("t")
        run_transfer(pair, 50 * 1024, tracer=tracer)
        assert tracer.count(Kind.SEND) >= 50
        assert tracer.count(Kind.ACK_RX) >= 10
        assert tracer.count(Kind.TIMER_CHECK) >= 2  # the diamonds
        assert tracer.count(Kind.CWND) >= 5
        assert tracer.count(Kind.ESTABLISHED) == 1

    def test_disabled_tracer_records_nothing(self):
        pair = make_pair()
        tracer = ConnectionTracer("t", enabled=False)
        run_transfer(pair, 10 * 1024, tracer=tracer)
        assert len(tracer) == 0
