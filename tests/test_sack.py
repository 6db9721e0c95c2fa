"""Tests for selective acknowledgements: scoreboard, wire, recovery."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.core.registry import make_cc
from repro.core.sack import SackVegasCC
from repro.tcp.sack import SackScoreboard
from repro.tcp.segment import FLAG_ACK, MAX_SACK_BLOCKS, TCPSegment

from helpers import make_pair


class TestScoreboard:
    def test_add_and_merge(self):
        board = SackScoreboard()
        board.add(10, 20)
        board.add(30, 40)
        board.add(20, 30)  # bridges
        assert board.blocks() == [(10, 40)]
        assert board.sacked_bytes() == 30

    def test_is_sacked(self):
        board = SackScoreboard()
        board.add(10, 20)
        assert board.is_sacked(10)
        assert board.is_sacked(19)
        assert not board.is_sacked(20)
        assert not board.is_sacked(5)

    def test_empty_add_ignored(self):
        board = SackScoreboard()
        board.add(5, 5)
        assert not board

    def test_advance_trims(self):
        board = SackScoreboard()
        board.add(10, 30)
        board.advance_to(20)
        assert board.blocks() == [(20, 30)]
        board.advance_to(30)
        assert not board

    def test_next_hole_basics(self):
        board = SackScoreboard()
        board.add(20, 30)
        board.add(40, 50)
        # Hole before the first block.
        assert board.next_hole(10, mss=10) == (10, 10)
        # Hole between blocks.
        assert board.next_hole(30, mss=10) == (30, 10)
        assert board.next_hole(25, mss=10) == (30, 10)
        # No hole above the highest SACKed byte.
        assert board.next_hole(50, mss=10) is None

    def test_next_hole_clamps_to_gap(self):
        board = SackScoreboard()
        board.add(12, 20)
        assert board.next_hole(10, mss=10) == (10, 2)


class TestScoreboardReordering:
    """Block coalescing must be insensitive to arrival order — exactly
    what a reordering path produces: SACK blocks for later segments
    reported before earlier ones, duplicates, and partial overlaps."""

    SEGMENTS = [(10, 20), (20, 30), (40, 50), (50, 60), (80, 90)]

    def _board_with(self, order):
        board = SackScoreboard()
        for start, end in order:
            board.add(start, end)
        return board

    def test_order_independent_canonical_form(self):
        expected = self._board_with(self.SEGMENTS).blocks()
        for perm in itertools.permutations(self.SEGMENTS):
            assert self._board_with(perm).blocks() == expected

    def test_touching_blocks_coalesce(self):
        board = self._board_with([(20, 30), (10, 20)])
        assert board.blocks() == [(10, 30)]
        assert board.sacked_bytes() == 20

    def test_duplicate_reports_idempotent(self):
        # A retransmitted SACK option re-reports old blocks verbatim.
        board = self._board_with(self.SEGMENTS + self.SEGMENTS)
        assert board.blocks() == self._board_with(self.SEGMENTS).blocks()

    def test_contained_block_absorbed(self):
        board = self._board_with([(10, 60), (20, 30)])
        assert board.blocks() == [(10, 60)]

    def test_partial_overlap_extends(self):
        board = self._board_with([(10, 30), (25, 45)])
        assert board.blocks() == [(10, 45)]

    def test_bridge_across_many_blocks(self):
        # One late block can stitch several earlier islands together.
        board = self._board_with([(10, 20), (30, 40), (50, 60), (15, 55)])
        assert board.blocks() == [(10, 60)]

    def test_next_hole_after_reordered_adds(self):
        board = self._board_with([(50, 60), (20, 30)])
        assert board.next_hole(10, mss=10) == (10, 10)
        assert board.next_hole(30, mss=100) == (30, 20)
        board.add(30, 50)  # the hole fills in late
        assert board.next_hole(10, mss=10) == (10, 10)
        assert board.next_hole(20, mss=10) is None

    def test_advance_then_late_block(self):
        # Blocks at/below the new cumulative point are dropped even
        # when the report arrives after the ACK advanced.
        board = self._board_with([(10, 20), (40, 50)])
        board.advance_to(30)
        board.add(15, 25)  # stale report, fully below snd_una
        board.advance_to(30)
        assert board.blocks() == [(40, 50)]

    def test_no_holes_when_empty(self):
        assert SackScoreboard().next_hole(0, mss=10) is None

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 20)),
                    max_size=40))
    def test_blocks_always_disjoint_sorted(self, adds):
        board = SackScoreboard()
        for start, length in adds:
            board.add(start, start + length)
        blocks = board.blocks()
        for (s1, e1), (s2, e2) in zip(blocks, blocks[1:]):
            assert e1 < s2  # disjoint with a real gap
        assert all(s < e for s, e in blocks)

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 10)),
                    min_size=1, max_size=30),
           st.integers(0, 80))
    def test_next_hole_is_never_sacked(self, adds, from_seq):
        board = SackScoreboard()
        for start, length in adds:
            board.add(start, start + length)
        hole = board.next_hole(from_seq, mss=5)
        if hole is not None:
            seq, length = hole
            assert length > 0
            assert not board.is_sacked(seq)
            assert seq >= from_seq


class TestSegmentSackOption:
    def test_blocks_carried_and_charged(self):
        seg = TCPSegment(1, 2, 0, 0, flags=FLAG_ACK,
                         sack=((10, 20), (30, 40)))
        assert seg.sack == ((10, 20), (30, 40))
        assert seg.wire_size == 40 + 16

    def test_block_limit_enforced(self):
        with pytest.raises(ValueError):
            TCPSegment(1, 2, 0, 0, sack=tuple((i, i + 1) for i in
                                              range(MAX_SACK_BLOCKS + 1)))


def _scattered_loss_run(cc_name, sack, drops=(5, 9, 13, 17)):
    from repro.apps.bulk import BulkSink, BulkTransfer

    pair = make_pair(queue_capacity=30)
    sink = BulkSink(pair.proto_b, 9000, sack=sack)
    transfer = BulkTransfer(pair.proto_a, "B", 9000, 256 * 1024,
                            cc=make_cc(cc_name), sack=sack)
    queue = pair.forward_queue
    original = queue.offer
    state = {"n": 0}
    dropset = set(drops)

    def lossy(packet, now):
        if now > 0.8 and packet.size > 500:
            state["n"] += 1
            if state["n"] in dropset:
                return False
        return original(packet, now)

    queue.offer = lossy
    pair.sim.run(until=120.0)
    assert transfer.done
    # Segments that reached the receiver entirely below its cumulative
    # ACK point: the unnecessary retransmissions.
    return transfer, sink.connections[0].recv.duplicate_segments


class TestSackRecovery:
    def test_receiver_reports_blocks(self):
        pair = make_pair(queue_capacity=30)
        pair.proto_b.listen(9000, sack=True)
        conn = pair.proto_a.connect("B", 9000, sack=True)
        pair.sim.run(until=2.0)
        # Craft an out-of-order arrival and watch the ACK carry SACK.
        server = pair.proto_b.connection_list()[0]
        server.recv.reasm.add(2048, 1024)
        blocks = server._sack_blocks()
        assert blocks == ((2048, 3072),)

    def test_sack_reno_avoids_timeout_on_scattered_losses(self):
        plain, _ = _scattered_loss_run("reno", sack=False)
        sacked, _ = _scattered_loss_run("reno-sack", sack=True)
        assert plain.conn.stats.coarse_timeouts >= 1
        assert sacked.conn.stats.coarse_timeouts == 0
        assert (sacked.conn.stats.transfer_seconds
                < plain.conn.stats.transfer_seconds)

    def test_sack_retransmits_each_hole_once(self):
        sacked, _ = _scattered_loss_run("reno-sack", sack=True)
        # Four drops, four (or five, counting a stray snd_una resend)
        # retransmitted segments — no duplicate hole repairs.
        assert sacked.conn.stats.retransmit_segments <= 6

    def test_vegas_sack_tandem(self):
        """§6: "It would be interesting to see how Vegas and the
        selective ACK mechanism work in tandem" — and "there is little
        reason to believe that selective ACKs can significantly improve
        on Vegas in terms of unnecessary retransmissions"."""
        plain, plain_dups = _scattered_loss_run("vegas", sack=False)
        tandem, tandem_dups = _scattered_loss_run("vegas-sack", sack=True)
        assert tandem.conn.stats.coarse_timeouts == 0
        others = [_scattered_loss_run(name, sack=name.endswith("sack"))[0]
                  for name in ("reno", "newreno", "reno-sack")]
        assert (tandem.conn.stats.transfer_seconds
                <= 1.05 * min(t.conn.stats.transfer_seconds
                              for t in [plain, *others]))
        assert isinstance(tandem.conn.cc, SackVegasCC)
        assert tandem.conn.cc.hole_retransmits >= 1
        assert plain_dups <= 0.04 * 256  # at most 4 % of the segments
        assert tandem_dups <= plain_dups

    def test_sack_disabled_scoreboard_stays_empty(self):
        transfer, _ = _scattered_loss_run("reno", sack=False)
        assert not transfer.conn.sack_board

    def test_clean_transfer_identical_with_sack(self):
        """With no loss, SACK changes nothing."""
        from repro.apps.bulk import BulkSink, BulkTransfer

        results = []
        for sack, name in ((False, "vegas"), (True, "vegas-sack")):
            pair = make_pair(queue_capacity=30)
            BulkSink(pair.proto_b, 9000, sack=sack)
            transfer = BulkTransfer(pair.proto_a, "B", 9000, 128 * 1024,
                                    cc=make_cc(name), sack=sack)
            pair.sim.run(until=60.0)
            assert transfer.done
            results.append(transfer.conn.stats.throughput_kbps())
        assert results[0] == pytest.approx(results[1], rel=0.01)
