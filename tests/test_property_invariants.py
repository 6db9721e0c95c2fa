"""Property-based invariant tests (Hypothesis).

Rather than hand-picking scenarios, these tests generate random
operation sequences, topologies and workloads, then assert the same
invariants the runtime checker audits: conservation, ordering,
sequence-space sanity.  Each end-to-end case runs with the checker in
``raise`` mode, so a failure carries the violated invariant's name and
simulated time in the error message.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checks import checking
from repro.core.registry import make_cc
from repro.faults import FaultPlan, injecting
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.tcp.sack import SackScoreboard
from repro.units import kb, kbps, ms

from helpers import make_pair, run_transfer

#: Shared profile: simulation-backed cases are slow per example, so
#: keep example counts small and disable the per-example deadline.
SIM_SETTINGS = settings(max_examples=10, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


class TestScoreboardModel:
    """The scoreboard must agree with a naive set-of-bytes model."""

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)),
                    max_size=12),
           st.integers(0, 250))
    @settings(max_examples=200, deadline=None)
    def test_matches_byte_set_model(self, blocks, advance):
        board = SackScoreboard()
        model = set()
        for start, length in blocks:
            board.add(start, start + length)
            model.update(range(start, start + length))
        board.advance_to(advance)
        model = {b for b in model if b >= advance}
        assert board.sacked_bytes() == len(model)
        for probe in range(0, 251, 7):
            assert board.is_sacked(probe) == (probe in model)

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)),
                    max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_blocks_stay_disjoint_and_sorted(self, blocks):
        board = SackScoreboard()
        for start, length in blocks:
            board.add(start, start + length)
        result = board.blocks()
        assert result == sorted(result)
        for (s1, e1), (s2, e2) in zip(result, result[1:]):
            assert e1 < s2  # disjoint with a genuine gap (else merged)
        for s, e in result:
            assert s < e

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)),
                    min_size=1, max_size=12),
           st.integers(0, 220), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_next_hole_is_really_a_hole(self, blocks, from_seq, mss):
        board = SackScoreboard()
        for start, length in blocks:
            board.add(start, start + length)
        hole = board.next_hole(from_seq, mss)
        if hole is None:
            return
        seq, length = hole
        assert seq >= from_seq
        assert 0 < length <= mss
        for probe in range(seq, seq + length):
            assert not board.is_sacked(probe)
        top = board.highest_sacked()
        assert top is not None and seq < top


class TestQueueModel:
    """DropTailQueue against a plain FIFO-list model."""

    class _P:
        def __init__(self, tag):
            self.tag = tag
            self.size = 100

    @given(st.lists(st.one_of(st.just("poll"), st.integers(0, 1 << 20)),
                    max_size=60),
           st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_fifo_and_conservation(self, ops, capacity):
        queue = DropTailQueue(capacity, name="q")
        model = []
        for i, op in enumerate(ops):
            now = 0.001 * i
            if op == "poll":
                got = queue.poll(now)
                want = model.pop(0) if model else None
                assert (got.tag if got else None) == \
                    (want.tag if want else None)
            else:
                packet = self._P(op)
                accepted = queue.offer(packet, now)
                assert accepted == (len(model) < capacity)
                if accepted:
                    model.append(packet)
        assert len(queue) == len(model)
        assert queue.enqueued == queue.dequeued + len(queue)
        assert queue.dropped == len(queue.drops)
        assert queue.max_depth <= capacity


class TestFaultPlanRoundtrip:
    _plans = st.builds(
        FaultPlan,
        drop=st.floats(0, 1), duplicate=st.floats(0, 1),
        reorder=st.floats(0, 1), jitter=st.floats(0, 1),
        reorder_hold=st.floats(0, 2), jitter_max=st.floats(0, 2),
        seed=st.integers(0, 1 << 16))

    @given(_plans)
    @settings(max_examples=200, deadline=None)
    def test_describe_parse_roundtrip(self, plan):
        assert FaultPlan.parse(plan.describe()) == plan


class TestEngineOrdering:
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=40),
           st.sets(st.integers(0, 39)))
    @settings(max_examples=200, deadline=None)
    def test_events_fire_in_time_order_with_cancels(self, delays, cancels):
        sim = Simulator()
        fired = []
        events = [sim.schedule(delay, fired.append, i)
                  for i, delay in enumerate(delays)]
        cancelled = {i for i in cancels if i < len(events)}
        for i in cancelled:
            sim.cancel(events[i])
        sim.run()
        assert set(fired) == set(range(len(delays))) - cancelled
        times = [delays[i] for i in fired]
        assert times == sorted(times)
        assert sim.pending_events == 0


class TestEndToEndInvariants:
    @given(cc=st.sampled_from(["reno", "tahoe", "newreno", "vegas",
                               "vegas-sack", "reno-sack"]),
           size_kb=st.integers(4, 96),
           buffers=st.integers(3, 20),
           bandwidth_kbps=st.integers(50, 400),
           delay_ms=st.integers(1, 120))
    @SIM_SETTINGS
    def test_random_scenarios_hold_all_invariants(self, cc, size_kb, buffers,
                                                  bandwidth_kbps, delay_ms):
        # Raise mode: any invariant violation aborts with a structured
        # error naming the invariant, the time, and the flow.
        with checking() as chk:
            pair = make_pair(bandwidth=kbps(bandwidth_kbps),
                             delay=ms(delay_ms), queue_capacity=buffers)
            transfer = run_transfer(pair, kb(size_kb), cc=make_cc(cc))
        assert transfer.done
        assert chk.violations == []
        assert chk.audits > 0

    @given(cc=st.sampled_from(["reno", "vegas"]),
           drop=st.floats(0, 0.05),
           duplicate=st.floats(0, 0.03),
           reorder=st.floats(0, 0.05),
           jitter=st.floats(0, 0.1),
           seed=st.integers(0, 1 << 16))
    @SIM_SETTINGS
    def test_random_faults_never_break_invariants(self, cc, drop, duplicate,
                                                  reorder, jitter, seed):
        plan = FaultPlan(drop=drop, duplicate=duplicate, reorder=reorder,
                         jitter=jitter, jitter_max=0.02, seed=seed)
        with checking() as chk:
            with injecting(plan) as session:
                pair = make_pair()
                transfer = run_transfer(pair, kb(32), cc=make_cc(cc))
        assert transfer.done
        assert chk.violations == []
        # Conservation closes exactly: everything dequeued was either
        # delivered, duplicated into existence, or absorbed by a fault.
        for injector in session.injectors:
            channel = injector.channel
            assert channel.queue.dequeued == (
                channel.in_transit + channel.packets_delivered
                - injector.extra + injector.absorbed)
            assert injector.held == 0  # nothing parked after drain


class TestSendTimeIndexModel:
    """``_send_times``/``_ends_heap`` must agree with a naive dict model.

    The connection keeps a min-heap over exactly the send-time dict's
    keys so the cumulative-ACK purge and the Vegas fine-RTO lookup are
    O(log n) instead of scanning the whole window.  This drives the
    index through random send/retransmit/ack/query interleavings and
    checks it against the obvious full-scan model after every step.
    """

    @staticmethod
    def _bare_connection():
        from repro.tcp.connection import TCPConnection

        conn = TCPConnection.__new__(TCPConnection)
        conn._send_times = {}
        conn._ends_heap = []
        conn._ambiguous = set()
        conn._probe_ends = set()
        conn.snd_una = 0
        return conn

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)),
                    max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_model(self, ops):
        conn = self._bare_connection()
        model = {}
        now = 0.0
        snd_max = 0

        for code, arg in ops:
            now += 1.0
            if code == 0:
                # New data: end_seq strictly beyond everything sent.
                end_seq = snd_max + arg
                snd_max = end_seq
                conn._note_send_time(end_seq, now)
                model[end_seq] = now
            elif code == 1:
                # Retransmission: refresh an outstanding end_seq's clock.
                if not model:
                    continue
                key = sorted(model)[arg % len(model)]
                conn._note_send_time(key, now)
                conn._ambiguous.add(key)
                model[key] = now
            elif code == 2:
                # Cumulative ACK through the purge path.
                ack = min(snd_max, conn.snd_una + arg)
                conn.snd_una = ack
                conn._purge_send_times(ack)
                for key in [k for k in model if k <= ack]:
                    del model[key]
            else:
                # Direct snd_una move (no purge): the lookup's lazy
                # sweep must repair the index on its own.
                ack = min(snd_max, conn.snd_una + arg)
                conn.snd_una = ack
                for key in [k for k in model if k <= ack]:
                    del model[key]

            expected = model[min(model)] if model else None
            assert conn.first_unacked_send_time() == expected

            # Heap and dict hold exactly the same key set, which is
            # exactly the naive model's outstanding set; the ambiguity
            # and probe marks never outlive their entries.
            assert conn._send_times == model
            assert sorted(conn._ends_heap) == sorted(model)
            assert conn._ambiguous <= set(model)
            assert conn._probe_ends <= set(model)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
