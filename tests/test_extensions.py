"""Tests for the extension features: NewReno and paced slow start."""

import pytest

from repro.core.newreno import NewRenoCC
from repro.core.registry import make_cc
from repro.core.reno import RenoCC
from repro.core.vegas import VegasCC

from fakes import FakeConnection
from helpers import make_pair, run_transfer


class TestNewRenoUnit:
    def _enter_recovery(self):
        conn = FakeConnection()
        cc = NewRenoCC()
        cc.attach(conn)
        cc.cwnd = 10 * conn.mss
        for _ in range(10):
            conn.send(cc)
        conn.first_unacked_ts = 0.0
        for count in (1, 2, 3):
            cc.on_dup_ack(count, 1.0)
        return conn, cc

    def test_recover_marks_snd_nxt(self):
        conn, cc = self._enter_recovery()
        assert cc.in_recovery
        assert cc.recover == conn.snd_nxt

    def test_partial_ack_retransmits_and_stays_in_recovery(self):
        conn, cc = self._enter_recovery()
        conn.retransmissions.clear()
        conn.ack(cc, 3 * conn.mss)  # partial: below recover point
        assert conn.retransmissions == ["fast"]
        assert cc.in_recovery
        assert cc.partial_ack_retransmits == 1

    def test_full_ack_ends_recovery(self):
        conn, cc = self._enter_recovery()
        conn.ack(cc, 10 * conn.mss)  # covers recover
        assert not cc.in_recovery

    def test_registry_name(self):
        assert isinstance(make_cc("newreno"), NewRenoCC)


class TestNewRenoEndToEnd:
    def test_double_loss_recovers_without_timeout(self):
        """The multi-drop window that stalls plain Reno (Figure 4's
        pathology) is recovered in-window by NewReno."""
        from repro.apps.bulk import BulkSink, BulkTransfer

        def run(cc):
            pair = make_pair(queue_capacity=30)
            BulkSink(pair.proto_b, 9000)
            transfer = BulkTransfer(pair.proto_a, "B", 9000, 128 * 1024,
                                    cc=cc, sndbuf=6 * 1024,
                                    rcvbuf=6 * 1024)
            queue = pair.forward_queue
            original = queue.offer
            state = {"drops": 0}

            def lossy(packet, now):
                if state["drops"] < 2 and now > 2.6 and packet.size > 500:
                    state["drops"] += 1
                    return False
                return original(packet, now)

            queue.offer = lossy
            pair.sim.run(until=120.0)
            assert transfer.done
            return transfer.conn.stats

        reno = run(RenoCC())
        newreno = run(NewRenoCC())
        assert reno.coarse_timeouts >= 1
        assert newreno.coarse_timeouts == 0
        assert newreno.transfer_seconds < reno.transfer_seconds


class TestPacedSlowStart:
    def test_pacing_rate_active_only_in_slow_start(self):
        conn = FakeConnection()
        cc = VegasCC(paced_slow_start=True)
        cc.attach(conn)
        assert cc.pacing_rate() is None  # no BaseRTT yet
        conn.fine_rtt.update(0.1)
        assert cc.pacing_rate() == pytest.approx(cc.cwnd / 0.1)
        cc.mode = "linear"
        assert cc.pacing_rate() is None

    def test_disabled_by_default(self):
        conn = FakeConnection()
        cc = VegasCC()
        cc.attach(conn)
        conn.fine_rtt.update(0.1)
        assert cc.pacing_rate() is None

    def test_paced_transfer_completes_losslessly(self):
        pair = make_pair()
        transfer = run_transfer(pair, 512 * 1024,
                                cc=VegasCC(paced_slow_start=True))
        assert transfer.done
        assert transfer.conn.stats.retransmitted_kb() <= 2.0
        assert transfer.conn.stats.coarse_timeouts == 0

    def test_paced_costs_little_throughput_with_ten_buffers(self):
        """Three 1 MB Figure-5 transfers over 10 bottleneck buffers,
        where pacing delays the γ signal and loses a little: paced Vegas
        keeps more than 85% of plain Vegas' mean throughput."""
        from repro.experiments.transfers import run_solo_transfer

        def mean_throughput(factory):
            return sum(run_solo_transfer(factory, buffers=10,
                                         seed=seed).throughput_kbps
                       for seed in (0, 1, 2)) / 3

        paced = mean_throughput(lambda: VegasCC(paced_slow_start=True))
        assert paced > 0.85 * mean_throughput(VegasCC)

    def test_paced_registry_variant(self):
        cc = make_cc("vegas-paced")
        assert isinstance(cc, VegasCC)
        assert cc.paced_slow_start

    def test_pacing_spreads_sends(self):
        """With pacing, back-to-back sends inside a window are spaced;
        the peak short-interval burst shrinks."""
        from repro.trace.records import Kind
        from repro.trace.tracer import ConnectionTracer

        from repro.experiments.transfers import run_solo_transfer

        def burstiness(cc, figure5):
            tracer = ConnectionTracer("t")
            if figure5:  # a 1 MB transfer over 30 Figure-5 buffers
                run_solo_transfer(lambda: cc, buffers=30, tracer=tracer)
            else:
                run_transfer(make_pair(queue_capacity=30), 256 * 1024,
                             cc=cc, tracer=tracer)
            sends = [r.time for r in tracer.of_kind(Kind.SEND)]
            # Count sends closer than 1 ms to their predecessor.
            return sum(1 for a, b in zip(sends, sends[1:]) if b - a < 1e-3)

        for figure5 in (False, True):
            plain = burstiness(VegasCC(), figure5)
            paced = burstiness(VegasCC(paced_slow_start=True), figure5)
            assert paced < plain
