"""Tests for the runtime invariant checker.

Two angles: clean simulations must pass every audit silently, and a
deliberately corrupted component (tampered counters, regressed
sequence numbers, out-of-policy window moves) must be caught and
reported with structured context.
"""

import pytest

from repro.checks import InvariantChecker, checking
from repro.core.registry import make_cc
from repro.errors import InvariantViolation, ReproError, SimulationError
from repro.net.addresses import FlowId
from repro.net.queue import DropTailQueue
from repro.sim import observers
from repro.sim.engine import Simulator
from repro.tcp.buffers import ReassemblyBuffer
from repro.units import kb

from fakes import FakeConnection
from helpers import make_pair, run_transfer


class _Packet:
    size = 1000


class _StubBuffers:
    def __init__(self, queued_end=1 << 30, in_buffer=0, capacity=50 * 1024):
        self.queued_end = queued_end
        self.in_buffer = in_buffer
        self.capacity = capacity


class _StubReceiver:
    def __init__(self):
        self.rcv_nxt = 0
        self.rcvbuf = 50 * 1024

        self.reasm = ReassemblyBuffer()


class _StubConnection:
    """Bare sequence-space surface the checker's TCP hooks consume."""

    def __init__(self, name="A"):
        self.now = 0.0
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0
        self.flow = FlowId(name, 1, "B", 2)
        self.sendbuf = _StubBuffers()
        self.recv = _StubReceiver()
        self.cc = make_cc("reno")


class TestInvariantViolation:
    def test_structured_fields(self):
        v = InvariantViolation("queue-conservation", 1.25,
                               subject="bottleneck", detail="off by one")
        assert v.invariant == "queue-conservation"
        assert v.sim_time == 1.25
        assert "t=1.250000" in str(v)
        assert "queue-conservation" in str(v)
        assert "bottleneck" in str(v)
        assert "off by one" in str(v)

    def test_flow_context(self):
        flow = FlowId("A", 9000, "B", 9001)
        v = InvariantViolation("ack-regression", 2.0, flow=flow)
        assert v.flow == flow
        assert "A:9000->B:9001" in str(v)

    def test_is_a_simulation_error(self):
        v = InvariantViolation("x", 0.0)
        assert isinstance(v, SimulationError)
        assert isinstance(v, ReproError)


class TestRuntimeActivation:
    def test_activate_deactivate(self):
        chk = InvariantChecker()
        assert observers.get("checker") is None
        with observers.armed(checker=chk):
            assert observers.get("checker") is chk
        assert observers.get("checker") is None

    def test_double_activate_rejected(self):
        with checking() as outer:
            with pytest.raises(RuntimeError, match="already active"):
                with checking():
                    pass  # pragma: no cover
            assert observers.get("checker") is outer

    def test_checking_deactivates_on_error(self):
        with pytest.raises(ValueError):
            with checking():
                raise ValueError("boom")
        assert observers.get("checker") is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(mode="warn")


class TestCleanRuns:
    @pytest.mark.parametrize("cc", ["reno", "tahoe", "newreno", "vegas",
                                    "vegas-1,3"])
    def test_clean_transfer_has_no_violations(self, cc):
        with checking() as chk:
            pair = make_pair()
            transfer = run_transfer(pair, kb(64), cc=make_cc(cc))
        assert transfer.done
        assert chk.violations == []
        assert chk.audits > 0

    def test_components_register_while_active(self):
        with checking() as chk:
            pair = make_pair()
            # Kept open: the checker forgets an endpoint once closed.
            run_transfer(pair, kb(16), cc=make_cc("vegas"),
                         close_when_done=False)
        assert pair.sim in chk._sims
        assert len(chk._channels) >= 2  # both bottleneck directions
        assert len(chk._connections) == 2

    def test_closed_endpoints_are_forgotten_after_a_run(self):
        with checking() as chk:
            pair = make_pair()
            transfer = run_transfer(pair, kb(16), cc=make_cc("vegas"))
        assert transfer.conn.is_closed
        assert chk.violations == []
        assert chk._connections == []
        # Nothing keyed by a forgotten endpoint's id is kept either:
        # a freed object's id can be handed to a new one.
        assert chk._last_una == chk._last_rcv_nxt == {}

    def test_a_closed_endpoint_is_audited_once_more(self):
        chk = InvariantChecker(mode="collect")
        with checking(chk):
            pair = make_pair()
            pair.proto_b.listen(9000)
            conn = pair.proto_a.connect("B", 9000, cc=make_cc("reno"))
            pair.sim.run(until=2.0)
            # The window breaks just as the endpoint closes.
            conn.on_closed = lambda c: setattr(c.cc, "cwnd", 0)
            conn.close()
            pair.sim.run(until=10.0)
        assert conn.is_closed
        assert [(v.invariant, v.flow) for v in chk.violations] == [
            ("cwnd-positive", conn.flow)]
        assert chk._connections == []

    def test_vegas_slow_start_decisions_reach_the_checker(self):
        exits = []

        class _Spy(InvariantChecker):
            def on_ss_decision(self, cc, diff_buffers, valid, grew, exited,
                               now):
                exits.append(exited)
                super().on_ss_decision(cc, diff_buffers, valid, grew, exited,
                                       now)

        chk = _Spy(mode="collect")
        with observers.armed(checker=chk):
            run_transfer(make_pair(), kb(64), cc=make_cc("vegas"))
        assert chk.violations == []
        assert exits.count(True) == 1 and False in exits

    def test_inactive_checker_costs_nothing(self):
        pair = make_pair()
        assert pair.sim._observers == ()
        assert pair.proto_a.connect("B", 9000)._checker is None


class TestClockMonotonicity:
    def test_backwards_clock_detected(self):
        chk = InvariantChecker(mode="collect", audit_interval=1 << 30)

        class _Sim:
            now = 5.0

        sim = _Sim()
        chk.on_event(sim, None)
        sim.now = 4.0
        chk.on_event(sim, None)
        assert [v.invariant for v in chk.violations] == ["clock-monotonicity"]

    def test_raise_mode_propagates_from_engine(self):
        # Corrupt a queue counter mid-run: the next piggybacked audit
        # must abort the simulation with the violation.
        with pytest.raises(InvariantViolation) as exc_info:
            with checking():
                pair = make_pair()

                def corrupt():
                    pair.forward_queue.enqueued += 7

                pair.sim.schedule(1.0, corrupt)
                run_transfer(pair, kb(64), cc=make_cc("reno"))
        assert exc_info.value.invariant == "queue-conservation"
        assert exc_info.value.sim_time >= 1.0


class TestStructuralAudits:
    def _checker_with_queue(self):
        chk = InvariantChecker(mode="collect")
        queue = DropTailQueue(5, name="q")
        chk.register_queue(queue)
        return chk, queue

    def test_queue_conservation_tamper(self):
        chk, queue = self._checker_with_queue()
        queue.offer(_Packet(), 0.0)
        queue.enqueued += 1
        chk.audit(1.0)
        assert [v.invariant for v in chk.violations] == ["queue-conservation"]

    def test_queue_occupancy_tamper(self):
        chk, queue = self._checker_with_queue()
        for _ in range(5):
            queue.offer(_Packet(), 0.0)
        queue.capacity = 3
        chk.audit(1.0)
        names = [v.invariant for v in chk.violations]
        assert "queue-occupancy" in names

    def test_queue_drop_accounting_tamper(self):
        chk, queue = self._checker_with_queue()
        for _ in range(7):
            queue.offer(_Packet(), 0.0)
        assert queue.dropped == 2
        queue.drops.pop()
        chk.audit(1.0)
        assert "queue-drop-accounting" in [v.invariant for v in chk.violations]

    def test_link_conservation_tamper(self):
        with checking(InvariantChecker(mode="collect")) as chk:
            pair = make_pair()
            run_transfer(pair, kb(16), cc=make_cc("reno"))
        assert chk.violations == []
        channel = pair.bottleneck.channel_from(pair.topology.router("R1"))
        channel.in_transit += 1
        chk.audit(pair.sim.now)
        assert "link-conservation" in [v.invariant for v in chk.violations]

    def test_drained_heap_detects_vanished_packets(self):
        with checking(InvariantChecker(mode="collect")) as chk:
            pair = make_pair()
            run_transfer(pair, kb(16), cc=make_cc("reno"))
        assert chk.violations == []
        channel = pair.bottleneck.channel_from(pair.topology.router("R1"))
        channel.in_transit = 2
        channel.packets_delivered -= 2  # keep the running audit happy
        chk._audit_drained(pair.sim.now)
        assert "packets-vanished" in [v.invariant for v in chk.violations]

    def test_audits_never_schedule_events(self):
        # The audit piggybacks on the event hook, so the processed
        # event count must match an unchecked run exactly.
        def run_once():
            pair = make_pair()
            run_transfer(pair, kb(32), cc=make_cc("vegas"))
            return pair.sim.events_processed

        baseline = run_once()
        with checking():
            assert run_once() == baseline


class TestSequenceSpaceHooks:
    def _collect(self):
        return InvariantChecker(mode="collect")

    def test_send_below_una(self):
        chk, conn = self._collect(), _StubConnection()
        conn.snd_una = 2000
        conn.snd_nxt = conn.snd_max = 3000
        chk.note_sent(conn, 1000, 2000)
        assert "send-below-una" in [v.invariant for v in chk.violations]

    def test_send_unqueued_data(self):
        chk, conn = self._collect(), _StubConnection()
        conn.sendbuf.queued_end = 500
        conn.snd_nxt = conn.snd_max = 1000
        chk.note_sent(conn, 0, 1000)
        assert "send-unqueued-data" in [v.invariant for v in chk.violations]

    def test_control_segments_exempt_from_queue_check(self):
        chk, conn = self._collect(), _StubConnection()
        conn.sendbuf.queued_end = 0
        conn.snd_nxt = conn.snd_max = 1
        chk.note_sent(conn, 0, 1, is_data=False)  # SYN occupies no data
        assert chk.violations == []

    def test_ack_regression(self):
        chk, conn = self._collect(), _StubConnection()
        conn.snd_una = 3000
        conn.snd_nxt = conn.snd_max = 4000
        chk.on_ack(conn, 3000)
        conn.snd_una = 2000
        chk.on_ack(conn, 2000)
        assert "ack-regression" in [v.invariant for v in chk.violations]

    def test_ack_beyond_snd_max(self):
        chk, conn = self._collect(), _StubConnection()
        conn.snd_una = conn.snd_nxt = conn.snd_max = 1000
        chk.on_ack(conn, 5000)
        assert "ack-beyond-snd-max" in [v.invariant for v in chk.violations]

    def test_sequence_space_ordering(self):
        chk, conn = self._collect(), _StubConnection()
        conn.snd_una, conn.snd_nxt, conn.snd_max = 100, 50, 200
        chk.on_ack(conn, 100)
        assert "sequence-space" in [v.invariant for v in chk.violations]

    def test_float_sequence_number(self):
        # Sequence variables are plain attributes, so nothing at the
        # write site rejects a float; the armed checker must.
        with checking(mode="collect") as chk:
            pair = make_pair()
            # Kept open: the checker forgets an endpoint once closed.
            transfer = run_transfer(pair, kb(16), cc=make_cc("reno"),
                                    close_when_done=False)
        assert chk.violations == []
        conn = transfer.conn
        conn.snd_nxt = float(conn.snd_nxt)
        chk.audit(pair.sim.now)
        assert [v.invariant for v in chk.violations] == ["sequence-integer"]
        assert chk.violations[0].flow == conn.flow

    def test_rcv_nxt_regression(self):
        chk, conn = self._collect(), _StubConnection()
        conn.recv.rcv_nxt = 500
        chk.on_segment_processed(conn)
        conn.recv.rcv_nxt = 400
        chk.on_segment_processed(conn)
        assert "rcv-nxt-regression" in [v.invariant for v in chk.violations]

    def test_delivery_of_unsent_data(self):
        chk = self._collect()
        sender = _StubConnection("A")
        receiver = _StubConnection("B")
        receiver.flow = sender.flow.reversed()
        sender.snd_nxt = sender.snd_max = 1000
        chk.note_sent(sender, 0, 1000)
        receiver.recv.rcv_nxt = 1500  # beyond anything A ever sent
        chk.on_segment_processed(receiver)
        assert "delivery-of-unsent-data" in \
            [v.invariant for v in chk.violations]


class TestCongestionWindowHooks:
    def _cc(self, name):
        fake = FakeConnection()
        cc = make_cc(name)
        cc.attach(fake)
        return cc

    def test_cwnd_must_stay_positive(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("reno")
        chk.on_cwnd(cc, cc.cwnd, 0, 1.0)
        assert "cwnd-positive" in [v.invariant for v in chk.violations]

    def test_cwnd_bounded(self):
        from repro.tcp import constants as C

        chk = InvariantChecker(mode="collect")
        cc = self._cc("reno")
        chk.on_cwnd(cc, cc.cwnd, C.MAX_CWND * 4, 1.0)
        assert "cwnd-bounded" in [v.invariant for v in chk.violations]

    def test_vegas_additive_growth(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("vegas")
        mss = cc.conn.mss
        chk.on_cwnd(cc, 2 * mss, 3 * mss, 1.0)  # +1 MSS: fine
        assert chk.violations == []
        chk.on_cwnd(cc, 2 * mss, 5 * mss, 1.0)  # +3 MSS: never
        assert "vegas-additive-growth" in \
            [v.invariant for v in chk.violations]

    def test_reno_may_jump_in_slow_start(self):
        # The additive-growth rule is Vegas-specific; Reno's recovery
        # deflation/inflation legitimately moves in bigger steps.
        chk = InvariantChecker(mode="collect")
        cc = self._cc("reno")
        mss = cc.conn.mss
        chk.on_cwnd(cc, 2 * mss, 8 * mss, 1.0)
        assert chk.violations == []

    def test_reno_single_halving(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("reno")
        cc.in_recovery = True
        chk.on_ssthresh(cc, 8192, 4096, 1.0)
        assert "reno-single-halving" in [v.invariant for v in chk.violations]

    def test_halving_outside_recovery_is_fine(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("reno")
        cc.in_recovery = False
        chk.on_ssthresh(cc, 8192, 4096, 1.0)
        assert chk.violations == []

    def test_ssthresh_positive(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("reno")
        chk.on_ssthresh(cc, 8192, 0, 1.0)
        assert "ssthresh-positive" in [v.invariant for v in chk.violations]

    def test_cam_decision_consistency(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("vegas")
        alpha, beta = cc.alpha, cc.beta
        mid = (alpha + beta) / 2.0
        chk.on_cam_decision(cc, alpha - 0.5, 1, 1.0)   # increase: ok
        chk.on_cam_decision(cc, beta + 0.5, -1, 1.0)   # decrease: ok
        chk.on_cam_decision(cc, mid, 0, 1.0)           # hold: ok
        assert chk.violations == []
        chk.on_cam_decision(cc, beta + 0.5, 1, 1.0)    # grow over beta
        chk.on_cam_decision(cc, alpha - 0.5, -1, 1.0)  # shrink under alpha
        chk.on_cam_decision(cc, beta + 0.5, 0, 1.0)    # hold out of band
        chk.on_cam_decision(cc, -0.25, 0, 1.0)         # negative Diff
        names = [v.invariant for v in chk.violations]
        assert "vegas-cam-alpha" in names
        assert "vegas-cam-beta" in names
        assert "vegas-cam-hold" in names
        assert "vegas-diff-nonnegative" in names

    def test_ss_decision_consistency(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("vegas")
        gamma = cc.gamma
        chk.on_ss_decision(cc, gamma + 0.5, True, False, True, 1.0)  # exit: ok
        chk.on_ss_decision(cc, gamma - 0.5, True, False, False, 1.0)  # grow: ok
        chk.on_ss_decision(cc, gamma + 0.5, False, True, False, 1.0)  # hold: ok
        assert chk.violations == []
        chk.on_ss_decision(cc, gamma - 0.5, True, False, True, 1.0)  # exit <= γ
        assert [v.invariant for v in chk.violations] == ["vegas-ss-gamma"]
        chk.on_ss_decision(cc, gamma + 0.5, True, False, False, 1.0)  # kept doubling
        assert [v.invariant for v in chk.violations] == ["vegas-ss-gamma"] * 2

    def test_ss_growth_every_other_rtt(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("vegas")
        below = cc.gamma - 0.5
        chk.on_ss_decision(cc, below, False, True, False, 1.0)  # grew
        chk.on_ss_decision(cc, below, True, False, False, 2.0)  # held
        chk.on_ss_decision(cc, below, False, True, False, 3.0)  # grew
        assert chk.violations == []
        chk.on_ss_decision(cc, below, False, True, False, 4.0)  # grew again
        assert [v.invariant for v in chk.violations] == [
            "vegas-ss-every-other-rtt"]
        # A loss cut ends the slow-start phase; the next one starts
        # with a growing RTT.
        chk.on_loss_decrease(cc, None, 5.0)
        chk.on_ss_decision(cc, below, False, True, False, 6.0)
        assert len(chk.violations) == 1

    def test_one_decrease_per_epoch(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("vegas")
        chk.on_loss_decrease(cc, 1.0, 2.0)    # first cut: ok
        chk.on_loss_decrease(cc, 2.5, 3.0)    # sent after that cut: ok
        assert chk.violations == []
        # The checker keeps its own record of the last cut (3.0), so a
        # controller that forgot its own cannot hide a second one.
        cc.last_decrease_time = float("-inf")
        chk.on_loss_decrease(cc, 2.9, 3.5)    # sent before the cut at 3.0
        assert [v.invariant for v in chk.violations] == [
            "vegas-one-decrease-per-epoch"]

    def test_coarse_timeout_opens_a_new_epoch(self):
        chk = InvariantChecker(mode="collect")
        cc = self._cc("vegas")
        chk.on_loss_decrease(cc, 1.0, 2.0)
        chk.on_loss_decrease(cc, None, 4.0)   # a timeout always may cut
        assert chk.violations == []
        chk.on_loss_decrease(cc, 3.5, 4.2)    # sent before the timeout
        assert [v.invariant for v in chk.violations] == [
            "vegas-one-decrease-per-epoch"]
        chk.on_loss_decrease(cc, 4.5, 5.0)    # sent after it: ok
        assert len(chk.violations) == 1

    def test_a_vegas_that_cuts_on_every_loss_is_caught(self, monkeypatch):
        from repro.core.vegas import VegasCC

        def run():
            with checking(mode="collect") as chk:
                transfer = run_transfer(make_pair(queue_capacity=3), kb(128),
                                        cc=make_cc("vegas"))
            assert transfer.done
            return [v.invariant for v in chk.violations]

        assert run() == []
        monkeypatch.setattr(VegasCC, "_decrease_allowed",
                            lambda self, sent_at: sent_at is not None)
        assert "vegas-one-decrease-per-epoch" in run()

    def test_a_vegas_that_grows_every_rtt_is_caught(self, monkeypatch):
        from repro.core.vegas import VegasCC

        def run():
            with checking(mode="collect") as chk:
                transfer = run_transfer(make_pair(), kb(128),
                                        cc=make_cc("vegas"))
            assert transfer.done
            return [v.invariant for v in chk.violations]

        assert run() == []
        # Slow start that never holds its window for a measurement.
        monkeypatch.setattr(VegasCC, "ss_grow",
                            property(lambda self: True,
                                     lambda self, value: None),
                            raising=False)
        assert "vegas-ss-every-other-rtt" in run()


class TestCollectModeAndReport:
    def test_collect_mode_accumulates(self):
        chk = InvariantChecker(mode="collect")

        class _Sim:
            now = 5.0

        sim = _Sim()
        chk.on_event(sim, None)
        sim.now = 4.0
        chk.on_event(sim, None)
        sim.now = 3.0
        chk.on_event(sim, None)
        assert len(chk.violations) == 2  # no raise, both recorded

    def test_report_is_json_serialisable(self):
        import json

        chk = InvariantChecker(mode="collect")
        conn = _StubConnection()
        conn.snd_una = conn.snd_nxt = conn.snd_max = 1000
        chk.on_ack(conn, 5000)
        records = chk.report()
        assert len(records) == 1
        record = json.loads(json.dumps(records))[0]
        assert record["invariant"] == "ack-beyond-snd-max"
        assert record["flow"] == "A:1->B:2"
        assert record["sim_time"] == 0.0

    def test_engine_run_end_triggers_final_audit(self):
        with checking() as chk:
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert chk.audits >= 1
