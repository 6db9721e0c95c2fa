"""Tests for TCP primitives: segments, buffers, RTT estimators."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.tcp import constants as C
from repro.tcp.buffers import ReassemblyBuffer, SendBuffer
from repro.tcp.rtt import CoarseRttEstimator, FineRttEstimator
from repro.tcp.segment import FLAG_ACK, FLAG_FIN, FLAG_SYN, TCPSegment


class TestSegment:
    def test_plain_data_segment(self):
        seg = TCPSegment(1, 2, seq=100, length=512, ack=50, flags=FLAG_ACK,
                         wnd=1000)
        assert seg.end_seq == 612
        assert seg.seq_consumed == 512
        assert seg.wire_size == 512 + C.HEADER_BYTES
        assert seg.has_ack and not seg.syn and not seg.fin

    def test_syn_consumes_one(self):
        seg = TCPSegment(1, 2, seq=0, length=0, flags=FLAG_SYN)
        assert seg.seq_consumed == 1
        assert seg.end_seq == 1
        assert seg.wire_size == C.HEADER_BYTES

    def test_fin_consumes_one(self):
        seg = TCPSegment(1, 2, seq=10, length=5, flags=FLAG_FIN | FLAG_ACK)
        assert seg.end_seq == 16

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            TCPSegment(1, 2, seq=0, length=-1)

    def test_flag_names(self):
        seg = TCPSegment(1, 2, 0, 0, flags=FLAG_SYN | FLAG_ACK)
        assert seg.flag_names() == "SYN|ACK"
        assert TCPSegment(1, 2, 0, 0).flag_names() == "-"


class TestSendBuffer:
    def test_write_within_capacity(self):
        buf = SendBuffer(100, start_seq=1)
        assert buf.write(60) == 60
        assert buf.write(60) == 40  # clipped
        assert buf.space == 0
        assert buf.in_buffer == 100

    def test_ack_frees_space(self):
        buf = SendBuffer(100, start_seq=1)
        buf.write(100)
        assert buf.ack_to(51) == 50
        assert buf.space == 50
        assert buf.una == 51

    def test_ack_below_una_is_noop(self):
        buf = SendBuffer(100, start_seq=1)
        buf.write(50)
        buf.ack_to(31)
        assert buf.ack_to(11) == 0
        assert buf.una == 31

    def test_ack_beyond_queued_clamped(self):
        buf = SendBuffer(100, start_seq=1)
        buf.write(10)
        assert buf.ack_to(1000) == 10

    def test_negative_write_rejected(self):
        with pytest.raises(ValueError):
            SendBuffer(10).write(-1)

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            SendBuffer(0)

    def test_rebase_requires_empty(self):
        buf = SendBuffer(10, start_seq=0)
        buf.write(5)
        with pytest.raises(ConfigurationError):
            buf.rebase(100)
        buf.ack_to(5)
        buf.rebase(100)
        assert buf.una == 100 and buf.queued_end == 100

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=50))
    def test_in_buffer_never_exceeds_capacity(self, writes):
        buf = SendBuffer(64)
        total = 0
        for w in writes:
            total += buf.write(w)
            assert 0 <= buf.in_buffer <= 64
        assert buf.in_buffer == total


class TestReassemblyBuffer:
    def test_in_order_delivery(self):
        buf = ReassemblyBuffer(0)
        assert buf.add(0, 10) == 10
        assert buf.add(10, 5) == 5
        assert buf.rcv_nxt == 15
        assert not buf.held

    def test_out_of_order_held_then_drained(self):
        buf = ReassemblyBuffer(0)
        assert buf.add(10, 10) == 0
        assert buf.held
        assert buf.held.covered_bytes() == 10
        assert buf.add(0, 10) == 20
        assert buf.rcv_nxt == 20
        assert buf.held.covered_bytes() == 0

    def test_duplicate_ignored(self):
        buf = ReassemblyBuffer(0)
        buf.add(0, 10)
        assert buf.add(0, 10) == 0
        assert buf.rcv_nxt == 10

    def test_partial_overlap_trimmed(self):
        buf = ReassemblyBuffer(0)
        buf.add(0, 10)
        assert buf.add(5, 10) == 5
        assert buf.rcv_nxt == 15

    def test_interval_merging(self):
        buf = ReassemblyBuffer(0)
        buf.add(10, 5)
        buf.add(20, 5)
        buf.add(15, 5)  # bridges the two
        assert buf.held.blocks() == [(10, 25)]
        assert buf.add(0, 10) == 25

    def test_zero_length_ok(self):
        buf = ReassemblyBuffer(0)
        assert buf.add(0, 0) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ReassemblyBuffer(0).add(0, -1)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 8)),
                    min_size=1, max_size=60))
    def test_matches_set_oracle(self, segments):
        """Whatever the arrival order/overlap, delivery matches a
        byte-set oracle and rcv_nxt is the first missing byte."""
        buf = ReassemblyBuffer(0)
        received = set()
        delivered_total = 0
        for seq, length in segments:
            delivered_total += buf.add(seq, length)
            received |= set(range(seq, seq + length))
            expected_nxt = 0
            while expected_nxt in received:
                expected_nxt += 1
            assert buf.rcv_nxt == expected_nxt
            assert delivered_total == expected_nxt
        # Buffered bytes are exactly the received bytes above rcv_nxt.
        assert buf.held.covered_bytes() == sum(1 for b in received if b >= buf.rcv_nxt)


class TestCoarseRtt:
    def test_initial_rto_is_bsd_default(self):
        est = CoarseRttEstimator()
        assert est.rto_ticks == C.INITIAL_RTO_TICKS

    def test_first_sample_initialises(self):
        est = CoarseRttEstimator()
        est.update(4)
        assert est.srtt == 4
        assert est.rttvar == 2
        assert est.rto_ticks >= C.MIN_RTO_TICKS

    def test_min_rto_clamp(self):
        est = CoarseRttEstimator()
        for _ in range(50):
            est.update(0)  # sub-tick RTT
        assert est.rto_ticks == C.MIN_RTO_TICKS

    def test_max_rto_clamp(self):
        est = CoarseRttEstimator()
        est.update(1000)
        assert est.rto_ticks == C.MAX_RTO_TICKS

    def test_variance_raises_rto(self):
        stable = CoarseRttEstimator()
        jittery = CoarseRttEstimator()
        for i in range(40):
            stable.update(4)
            jittery.update(2 if i % 2 else 10)
        assert jittery.rto_ticks > stable.rto_ticks

    def test_backoff_doubles_and_clamps(self):
        est = CoarseRttEstimator()
        est.update(2)
        base = est.rto_ticks
        assert est.backed_off_rto(1) == min(C.MAX_RTO_TICKS, base * 2)
        assert est.backed_off_rto(12) == C.MAX_RTO_TICKS

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            CoarseRttEstimator().update(-1)


class TestFineRtt:
    def test_base_rtt_is_minimum(self):
        est = FineRttEstimator()
        for sample in (0.2, 0.15, 0.3, 0.18):
            est.update(sample)
        assert est.base_rtt == pytest.approx(0.15)

    def test_update_base_false_excludes(self):
        est = FineRttEstimator()
        est.update(0.01, update_base=False)
        assert est.base_rtt is None
        est.update(0.2)
        assert est.base_rtt == pytest.approx(0.2)
        assert est.samples == 2

    def test_rto_tracks_srtt_plus_var(self):
        est = FineRttEstimator()
        for _ in range(100):
            est.update(0.1)
        assert est.rto == pytest.approx(max(C.MIN_FINE_RTO, 0.1), rel=0.2)

    def test_set_base_rtt_override(self):
        est = FineRttEstimator()
        est.update(0.1)
        est.set_base_rtt(0.5)
        assert est.base_rtt == 0.5

    def test_fine_rto_floor(self):
        est = FineRttEstimator(min_rto=0.05)
        for _ in range(50):
            est.update(0.001)
        assert est.rto == 0.05

    @given(st.lists(st.floats(min_value=1e-4, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=100))
    def test_base_never_above_any_sample(self, samples):
        est = FineRttEstimator()
        for s in samples:
            est.update(s)
        assert est.base_rtt == pytest.approx(min(samples))
        assert est.rto >= est.min_rto
