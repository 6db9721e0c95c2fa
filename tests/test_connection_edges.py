"""Edge-case tests for the connection state machine."""

import pytest

from repro.core.registry import make_cc
from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.tcp.connection import ClosedEndpoint, State
from repro.tcp.segment import FLAG_ACK, FLAG_FIN, FLAG_SYN, TCPSegment

from helpers import make_pair


def drop_nth(queue, indices, predicate=lambda p: True):
    original = queue.offer
    state = {"n": 0}

    def offer(packet, now):
        if predicate(packet):
            state["n"] += 1
            if state["n"] in indices:
                return False
        return original(packet, now)

    queue.offer = offer


class TestHandshakeEdges:
    def test_lost_synack_recovered_by_syn_retransmit(self):
        pair = make_pair()
        accepted = []
        pair.proto_b.listen(9000, on_accept=accepted.append)
        # Drop the first reverse-direction packet (the SYN-ACK).
        reverse = pair.bottleneck.channel_from(pair.topology.router("R2")).queue
        drop_nth(reverse, {1})
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=60.0)
        assert conn.state == State.ESTABLISHED
        [server] = accepted
        assert server.state == State.ESTABLISHED

    def test_duplicate_syn_does_not_create_second_connection(self):
        pair = make_pair()
        accepted = []
        pair.proto_b.listen(9000, on_accept=accepted.append)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        # Replay the SYN (e.g. a duplicate in the network).
        syn = TCPSegment(conn.flow.local_port, 9000, seq=0, length=0,
                         flags=FLAG_SYN, wnd=50 * 1024)
        pair.b.receive(Packet("A", "B", syn, syn.wire_size))
        pair.sim.run(until=4.0)
        assert len(accepted) == 1
        assert list(pair.proto_b.connections.values()) == accepted

    def test_lost_third_ack_recovered_by_data(self):
        """If the handshake's final ACK is lost, the first data segment
        carries the same acknowledgement and completes the accept."""
        pair = make_pair()
        accepted = []
        pair.proto_b.listen(9000, on_accept=accepted.append)
        forward = pair.forward_queue
        # Packet 1 = SYN (keep), packet 2 = the third ACK (drop).
        drop_nth(forward, {2})
        conn = pair.proto_a.connect("B", 9000)
        conn.on_established = lambda c: c.app_send(2048)
        pair.sim.run(until=30.0)
        [server] = accepted
        assert server.state == State.ESTABLISHED
        assert server.recv.bytes_delivered == 2048


class TestCloseEdges:
    def test_lost_fin_is_retransmitted(self):
        pair = make_pair()
        accepted = []
        pair.proto_b.listen(9000, on_accept=accepted.append)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        conn.app_send(1024)
        pair.sim.run(until=3.0)
        # Drop the next forward packet (the FIN).
        drop_nth(pair.forward_queue, {1})
        conn.close()
        pair.sim.run(until=60.0)
        assert conn.is_closed
        assert accepted and all(c.is_closed for c in accepted)
        assert pair.proto_a.connections == pair.proto_b.connections == {}

    def test_segment_to_closed_connection_reacked(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        conn.close()
        pair.sim.run(until=10.0)
        assert conn.is_closed
        # A stray retransmitted data segment arrives after close.
        stray = TCPSegment(conn.flow.remote_port, conn.flow.local_port,
                           seq=1, length=100, ack=conn.snd_nxt,
                           flags=FLAG_ACK, wnd=1000)
        assert pair.proto_a.connections == {}
        before = pair.a.packets_sent
        pair.a.receive(Packet("B", "A", stray, stray.wire_size))
        assert pair.a.packets_sent == before + 1  # a re-ACK went out

    def test_close_is_idempotent(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        conn.close()
        conn.close()  # second close is a no-op
        pair.sim.run(until=10.0)
        assert conn.is_closed


def _segments_from(host_name, proto):
    """Record every segment *proto*'s host receives from *host_name*."""
    seen = []
    handler = proto.host.protocol_handler

    def record(packet):
        if packet.src == host_name:
            seen.append(packet.payload)
        handler(packet)

    proto.host.protocol_handler = record
    return seen


def _ack_fields(seg):
    return seg.seq, seg.ack, seg.wnd, seg.sack


class TestClosedEndpoint:
    """A closed endpoint leaves its host's demux; a small record under
    its key answers residual segments with the endpoint's last ACK."""

    def _closed_sack_endpoint(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000, cc=make_cc("reno-sack"),
                                    ecn=True)
        pair.sim.run(until=2.0)
        # Out-of-order data held past close, so the ACKs carry a block.
        block = (conn.recv.rcv_nxt + 5000, conn.recv.rcv_nxt + 5100)
        conn.recv.reasm.add(block[0], 100)
        seen = _segments_from("A", pair.proto_b)
        conn.close()
        pair.sim.run(until=10.0)
        assert conn.is_closed and not conn.aborted
        return pair, conn, seen, block

    def test_residual_segments_get_the_last_ack(self):
        pair, conn, seen, block = self._closed_sack_endpoint()
        flow = conn.flow
        key = (flow.local_port, flow.remote_addr, flow.remote_port)
        assert pair.proto_a.connections == {}
        assert type(pair.proto_a._closed[key]) is ClosedEndpoint
        last = seen[-1]
        assert last.flags == FLAG_ACK and last.length == 0
        assert last.sack == (block,)
        residuals = [
            (TCPSegment(9000, flow.local_port, seq=1, length=100,
                        ack=conn.snd_nxt, flags=FLAG_ACK, wnd=1000), False),
            (TCPSegment(9000, flow.local_port, seq=conn.recv.rcv_nxt - 1,
                        length=0, ack=conn.snd_nxt,
                        flags=FLAG_ACK | FLAG_FIN, wnd=1000), False),
            (TCPSegment(9000, flow.local_port, seq=1, length=100,
                        ack=conn.snd_nxt, flags=FLAG_ACK, wnd=1000), True),
        ]
        for seg, marked in residuals:
            packet = Packet("B", "A", seg, seg.wire_size)
            packet.ecn_marked = marked
            pair.a.receive(packet)
            pair.sim.run(until=pair.sim.now + 1.0)
            answer = seen[-1]
            assert answer is not last
            assert _ack_fields(answer) == _ack_fields(last)
            assert answer.ece == marked
            last = answer
        # A pure ACK is not answered.
        before = len(seen)
        pair.a.receive(Packet("B", "A", TCPSegment(
            9000, flow.local_port, seq=1, length=0, ack=conn.snd_nxt,
            flags=FLAG_ACK, wnd=1000), 40))
        pair.sim.run(until=pair.sim.now + 1.0)
        assert len(seen) == before

    def test_lost_final_ack_is_answered_by_the_record(self):
        pair = make_pair()
        accepted = []
        pair.proto_b.listen(9000, on_accept=accepted.append)
        conn = pair.proto_a.connect("B", 9000)
        pair.sim.run(until=2.0)
        conn.app_send(1024)
        pair.sim.run(until=3.0)
        # The ACK of the peer's FIN leaves after A has closed: drop it.
        dropped = []

        def final_ack(packet):
            if conn.is_closed and not dropped:
                dropped.append(packet.payload)
                return True
            return False

        drop_nth(pair.forward_queue, {1}, final_ack)
        conn.close()
        pair.sim.run(until=60.0)
        [server] = accepted
        assert dropped and dropped[0].flags == FLAG_ACK
        assert conn.is_closed and pair.proto_a.connections == {}
        # The peer's FIN went again, the record re-ACKed it, and the
        # peer closed cleanly.
        assert server.stats.coarse_timeouts >= 1
        assert server.is_closed and not server.aborted
        assert pair.proto_b.connections == {}

    def test_connect_refuses_a_closed_key(self):
        pair = make_pair()
        pair.proto_b.listen(9000)
        conn = pair.proto_a.connect("B", 9000, local_port=5000)
        pair.sim.run(until=2.0)
        conn.close()
        pair.sim.run(until=10.0)
        assert conn.is_closed and pair.proto_a.connections == {}
        with pytest.raises(ConfigurationError):
            pair.proto_a.connect("B", 9000, local_port=5000)


class TestStats:
    def test_transfer_timestamps_ordered(self):
        from helpers import run_transfer

        pair = make_pair()
        transfer = run_transfer(pair, 16 * 1024)
        stats = transfer.conn.stats
        assert stats.open_time <= stats.established_time
        assert stats.established_time <= stats.first_send_time
        assert stats.first_send_time <= stats.last_ack_time
        assert stats.last_ack_time <= stats.close_time

    def test_bytes_accounting_consistent(self):
        from helpers import run_transfer

        pair = make_pair()
        transfer = run_transfer(pair, 32 * 1024)
        stats = transfer.conn.stats
        assert stats.app_bytes_queued == 32 * 1024
        assert stats.app_bytes_acked == 32 * 1024
        assert stats.bytes_sent_total >= 32 * 1024
        assert (stats.bytes_sent_total - 32 * 1024
                == stats.retransmitted_bytes)
