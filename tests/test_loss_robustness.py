"""Property-based robustness: TCP must survive arbitrary loss patterns.

Hypothesis drives random drop sets against both directions of the
bottleneck (data *and* ACKs) for every congestion-control policy, and
the invariants must hold regardless:

* the application receives exactly the bytes sent — no loss, no
  duplication, in order (the reassembly buffer's contract);
* sender sequence bookkeeping stays ordered
  (``snd_una <= snd_nxt <= snd_max``);
* the simulation goes quiet afterwards (no timer leaks).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.core.registry import make_cc

from helpers import make_pair

CC_NAMES = ("reno", "newreno", "tahoe", "vegas", "vegas-1,3", "dual",
            "card", "tri-s")


def lossy_wrap(queue, drop_indices, predicate=lambda p: True):
    """Drop the i-th matching packet for each i in *drop_indices*."""
    original = queue.offer
    state = {"n": 0}

    def offer(packet, now):
        if predicate(packet):
            state["n"] += 1
            if state["n"] in drop_indices:
                return False
        return original(packet, now)

    queue.offer = offer


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    cc_name=st.sampled_from(CC_NAMES),
    data_drops=st.sets(st.integers(min_value=1, max_value=80), max_size=12),
    ack_drops=st.sets(st.integers(min_value=1, max_value=80), max_size=12),
)
def test_exact_delivery_under_arbitrary_loss(cc_name, data_drops, ack_drops):
    size = 64 * 1024
    pair = make_pair(queue_capacity=30)
    sink = BulkSink(pair.proto_b, 9000)
    transfer = BulkTransfer(pair.proto_a, "B", 9000, size,
                            cc=make_cc(cc_name))
    lossy_wrap(pair.forward_queue, data_drops,
               predicate=lambda p: p.size > 500)
    reverse = pair.bottleneck.channel_from(pair.topology.router("R2")).queue
    lossy_wrap(reverse, ack_drops)
    pair.sim.run(until=600.0)

    conn = transfer.conn
    assert transfer.done, (cc_name, sorted(data_drops), sorted(ack_drops))
    # Exactly-once, in-order delivery.
    assert sink.bytes_received == size
    assert conn.stats.app_bytes_acked == size
    # Sequence bookkeeping invariants.
    assert conn.snd_una <= conn.snd_nxt <= conn.snd_max
    # Receiver holds no stray out-of-order bytes.
    server = sink.connections[0]
    assert server.recv.reasm.held.covered_bytes() == 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data_drops=st.sets(st.integers(min_value=1, max_value=60), max_size=10),
)
def test_sack_delivery_under_arbitrary_loss(data_drops):
    """The SACK variants obey the same exactly-once contract."""
    size = 64 * 1024
    pair = make_pair(queue_capacity=30)
    sink = BulkSink(pair.proto_b, 9000)
    transfer = BulkTransfer(pair.proto_a, "B", 9000, size,
                            cc=make_cc("vegas-sack"))
    lossy_wrap(pair.forward_queue, data_drops,
               predicate=lambda p: p.size > 500)
    pair.sim.run(until=600.0)
    assert transfer.done
    assert sink.bytes_received == size
    board = transfer.conn.sack_board
    # Scoreboard fully consumed: nothing SACKed beyond snd_una remains
    # unacknowledged at the end.
    assert board.covered_bytes() == 0
