"""Zero-window persist probes: backoff and measurement hygiene.

The persist machinery keeps a connection alive while the peer
advertises a zero window, but its probes are *not* normal data
segments: 4.4BSD backs the probe interval off exponentially
(TCPTV_PERSMIN up to TCPTV_PERSMAX), and a probe's RTT — measured
through a zero-window stall at the receiver — must never feed Vegas'
BaseRTT or be selected as the CAM distinguished segment.
"""

import pytest

from repro.core.vegas import VegasCC
from repro.tcp import constants as C
from repro.trace.records import Kind
from repro.trace.tracer import ConnectionTracer

from helpers import make_pair


def _persist_pair(cc=None, tracer=None, payload=2000):
    """A connected pair whose B side advertises a zero window.

    Returns ``(pair, conn, peer)`` with *payload* bytes queued on the
    A side: one MSS goes out against the handshake window, everything
    after stalls behind the peer's zero-window ACKs, and the sender
    enters persist.
    """
    pair = make_pair()
    accepted = []
    pair.proto_b.listen(9000, on_accept=accepted.append)
    conn = pair.proto_a.connect("B", 9000, cc=cc, tracer=tracer)
    pair.sim.run(until=2.0)
    peer = accepted[0]
    peer.recv.rcvbuf = 0  # every ACK from here on advertises wnd=0
    conn.app_send(payload)
    return pair, conn, peer


class TestPersistBackoff:
    def test_probe_interval_backs_off_exponentially(self):
        tracer = ConnectionTracer("persist")
        pair, conn, peer = _persist_pair(tracer=tracer)
        pair.sim.run(until=24.0)

        probes = tracer.of_kind(Kind.PROBE)
        assert conn.stats.persist_probes == len(probes)
        # ~22 s in persist is ~44 slow ticks.  One probe per tick (the
        # old behaviour) would send ~44 probes; the doubling schedule
        # (0.5, 1, 2, 4, 8, 16 s...) sends a handful.
        assert 3 <= len(probes) <= 10
        gaps = [b.time - a.time for a, b in zip(probes, probes[1:])]
        # Monotone non-decreasing gaps, and clear doubling overall.
        for earlier, later in zip(gaps, gaps[1:]):
            assert later >= earlier - 1e-9
        assert gaps[-1] >= 4 * gaps[0]
        # The backoff shift is recorded in the trace's b column.
        shifts = [int(p.b) for p in probes]
        assert shifts == sorted(shifts)
        assert shifts[0] == 0 and shifts[-1] >= 3

    def test_backoff_capped_at_persmax(self):
        assert C.MAX_PERSIST_TICKS * C.SLOW_TICK == pytest.approx(60.0)
        tracer = ConnectionTracer("persist")
        pair, conn, peer = _persist_pair(tracer=tracer)
        pair.sim.run(until=200.0)
        probes = tracer.of_kind(Kind.PROBE)
        gaps = [b.time - a.time for a, b in zip(probes, probes[1:])]
        assert max(gaps) <= C.MAX_PERSIST_TICKS * C.SLOW_TICK + C.SLOW_TICK

    def test_window_reopen_resets_backoff_and_resumes(self):
        pair, conn, peer = _persist_pair()
        pair.sim.run(until=10.0)
        assert conn.stats.persist_probes >= 3
        assert conn.unsent_bytes() > 0
        peer.recv.rcvbuf = C.DEFAULT_SOCKBUF  # window reopens
        # The next probe's ACK advertises the reopened window; the
        # stalled data then drains normally.
        pair.sim.run(until=40.0)
        assert conn.unsent_bytes() == 0
        assert conn.flight_size() == 0
        assert conn._persist_shift == 0
        assert conn._persist_countdown == 0


class TestPersistMeasurementHygiene:
    def test_probes_never_reach_congestion_control(self):
        pair, conn, peer = _persist_pair(cc=VegasCC())
        sent_to_cc = []
        original = conn.cc.on_segment_sent

        def spy(seq, length, end_seq, is_retx, now):
            sent_to_cc.append(end_seq)
            return original(seq, length, end_seq, is_retx, now)

        conn.cc.on_segment_sent = spy
        pair.sim.run(until=24.0)
        assert conn.stats.persist_probes >= 3
        # Only probes went out during persist: the CC never saw a send,
        # so no probe could be selected as the CAM distinguished segment.
        assert sent_to_cc == []
        assert conn.cc._cam_end is None

    def test_probes_never_lower_base_rtt(self):
        pair, conn, peer = _persist_pair(cc=VegasCC())
        pair.sim.run(until=3.0)
        base_before = conn.fine_rtt.base_rtt
        assert base_before is not None  # set by the pre-stall data ACK
        pair.sim.run(until=60.0)
        assert conn.stats.persist_probes >= 4
        # Probe samples apply with update_base=False (like SYN/FIN
        # samples), so BaseRTT is bit-identical across the stall.
        assert conn.fine_rtt.base_rtt == base_before

    def test_probe_acks_do_not_feed_cc_rtt(self):
        pair, conn, peer = _persist_pair(cc=VegasCC())
        pair.sim.run(until=3.0)
        seen = []
        original = conn.cc.on_new_ack

        def spy(acked, now, sample):
            seen.append(sample)
            return original(acked, now, sample)

        conn.cc.on_new_ack = spy
        pair.sim.run(until=24.0)
        assert conn.stats.persist_probes >= 3
        # Probe ACKs still drive the window bookkeeping, but carry no
        # RTT sample.
        assert seen and all(sample is None for sample in seen)

    def test_persist_probe_stat_and_segments_counted(self):
        pair, conn, peer = _persist_pair()
        before = conn.stats.segments_sent
        pair.sim.run(until=10.0)
        assert conn.stats.persist_probes >= 3
        assert conn.stats.segments_sent >= before + conn.stats.persist_probes
