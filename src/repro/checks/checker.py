"""Runtime invariant checker.

The checker audits a running simulation from the outside: components
register themselves at construction (the ``checker`` role of
:mod:`repro.sim.observers`) and call cheap notification hooks at the
few points where protocol invariants are decidable.  Structural
conservation laws — queue and link packet accounting, buffer
occupancy — are re-audited periodically from the engine's event loop
and once more when a run ends.

Checked invariants:

* **Event clock monotonicity** — the simulated clock never moves
  backwards between events.
* **Queue conservation** — for every queue, ``enqueued == dequeued +
  len(queue)``, occupancy never exceeds capacity, and drop counters
  never go negative.
* **Link conservation** — for every channel, every packet dequeued
  from the egress queue is either still in flight, delivered, or
  absorbed by an injected fault; when the event heap drains, nothing
  may remain in flight.
* **Sequence-space sanity** — ``snd_una``/``snd_nxt``/``snd_max`` are
  integers and ``snd_una <= snd_nxt <= snd_max``, cumulative ACKs never regress or overtake ``snd_max``, senders never
  transmit unqueued data or data below ``snd_una``, and a receiver's
  ``rcv_nxt`` never passes what its peer actually sent.
* **Congestion-window bounds** — windows stay positive and bounded;
  Vegas grows by at most one segment per adjustment and its CAM
  decisions are consistent with the α/β thresholds (and, in slow
  start, with γ); in slow start Vegas grows its window only every
  other RTT (§3.3); Vegas cuts its window at most once per send-rate
  epoch (§3.1); Reno-family controllers never halve ``ssthresh`` twice
  within one recovery epoch.
* **Buffer occupancy** — send buffers respect their capacity and
  reassembly queues never hold more than the advertised window.

In ``raise`` mode the first violation raises
:class:`~repro.errors.InvariantViolation`; in ``collect`` mode all
violations are recorded on :attr:`InvariantChecker.violations` and the
simulation continues.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.errors import InvariantViolation
from repro.sim.observers import Instrument, armed

#: How many processed events between two structural audits.  Audits
#: piggyback on the engine's event hook — they schedule nothing — so
#: enabling checks never changes ``events_processed``.
DEFAULT_AUDIT_INTERVAL = 256

#: Structural slack above MAX_CWND: recovery inflation legitimately
#: overshoots the cap by a few segments before deflation.
_CWND_SLACK_SEGMENTS = 16


class InvariantChecker(Instrument):
    """Audits one simulation run; see the module docstring.

    Args:
        mode: ``"raise"`` (fail fast, the default) or ``"collect"``
            (record violations and keep running).
        audit_interval: events between two structural audits.
    """

    def __init__(self, mode: str = "raise",
                 audit_interval: int = DEFAULT_AUDIT_INTERVAL):
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        self.mode = mode
        self.audit_interval = audit_interval
        self.violations: List[InvariantViolation] = []
        self.audits = 0
        self._sims: List[object] = []
        self._queues: List[object] = []
        self._channels: List[object] = []
        self._lans: List[object] = []
        self._connections: List[object] = []
        self._events_seen = 0
        self._last_time: Dict[int, float] = {}
        # Highest end-sequence each flow has ever put on the wire,
        # keyed by the sender's FlowId tuple; the peer's receive side
        # is checked against the reversed key.
        self._max_sent: Dict[Tuple, int] = {}
        self._last_una: Dict[int, int] = {}
        self._last_rcv_nxt: Dict[int, int] = {}
        # When each Vegas controller last cut its window, as this
        # checker saw it (never read back from the controller).
        self._last_decrease: Dict[int, float] = {}
        # Whether each Vegas controller's window grew over the RTT its
        # last slow-start decision measured; a loss cut ends that
        # slow-start phase and drops the entry.
        self._ss_grew: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Registration (called from component constructors)
    # ------------------------------------------------------------------
    def register_simulator(self, sim) -> None:
        self._sims.append(sim)

    def register_queue(self, queue) -> None:
        self._queues.append(queue)

    def register_channel(self, channel) -> None:
        self._channels.append(channel)

    def register_lan(self, lan) -> None:
        self._lans.append(lan)

    def register_connection(self, conn) -> None:
        self._connections.append(conn)

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _fail(self, invariant: str, sim_time: float, subject: str = "",
              flow=None, detail: str = "") -> None:
        violation = InvariantViolation(invariant, sim_time, subject=subject,
                                       flow=flow, detail=detail)
        self.violations.append(violation)
        if self.mode == "raise":
            raise violation

    def report(self) -> List[Dict[str, object]]:
        """Violations as JSON-serialisable records (for CI artifacts)."""
        return [
            {
                "invariant": v.invariant,
                "sim_time": v.sim_time,
                "subject": v.subject,
                "flow": str(v.flow) if v.flow is not None else None,
                "detail": v.detail,
            }
            for v in self.violations
        ]

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_event(self, sim, fn) -> None:
        """Called by the engine before dispatching each event."""
        last = self._last_time.get(id(sim))
        if last is not None and sim.now < last:
            self._fail("clock-monotonicity", sim.now, subject="simulator",
                       detail=f"clock moved from {last:.6f} to {sim.now:.6f}")
        self._last_time[id(sim)] = sim.now
        self._events_seen += 1
        if self._events_seen % self.audit_interval == 0:
            self.audit(sim.now)

    def on_run_end(self, sim) -> None:
        """Called by the engine when ``run()`` returns."""
        self.audit(sim.now)
        if sim.pending_events == 0:
            self._audit_drained(sim.now)

    # ------------------------------------------------------------------
    # TCP sequence-space hooks (called from the connection)
    # ------------------------------------------------------------------
    def note_sent(self, conn, seq: int, end_seq: int,
                  is_data: bool = True) -> None:
        """A segment occupying ``[seq, end_seq)`` left *conn*."""
        now = conn.now
        if seq < conn.snd_una:
            self._fail("send-below-una", now, flow=conn.flow,
                       detail=f"sent seq {seq} below snd_una {conn.snd_una}")
        if is_data and end_seq > conn.sendbuf.queued_end:
            self._fail("send-unqueued-data", now, flow=conn.flow,
                       detail=f"sent through {end_seq} but only "
                              f"{conn.sendbuf.queued_end} queued")
        key = tuple(conn.flow)
        if end_seq > self._max_sent.get(key, 0):
            self._max_sent[key] = end_seq
        self._check_seq(conn, now)

    def on_ack(self, conn, ack: int) -> None:
        """A cumulative ACK advanced *conn*'s ``snd_una`` to *ack*."""
        now = conn.now
        prev = self._last_una.get(id(conn))
        if prev is not None and conn.snd_una < prev:
            self._fail("ack-regression", now, flow=conn.flow,
                       detail=f"snd_una regressed {prev} -> {conn.snd_una}")
        self._last_una[id(conn)] = conn.snd_una
        if ack > conn.snd_max:
            self._fail("ack-beyond-snd-max", now, flow=conn.flow,
                       detail=f"ack {ack} > snd_max {conn.snd_max}")
        self._check_seq(conn, now)

    def on_segment_processed(self, conn) -> None:
        """*conn* finished processing one inbound segment."""
        now = conn.now
        rcv_nxt = conn.recv.rcv_nxt
        prev = self._last_rcv_nxt.get(id(conn))
        if prev is not None and rcv_nxt < prev:
            self._fail("rcv-nxt-regression", now, flow=conn.flow,
                       detail=f"rcv_nxt regressed {prev} -> {rcv_nxt}")
        self._last_rcv_nxt[id(conn)] = rcv_nxt
        peer_sent = self._max_sent.get(tuple(conn.flow.reversed()))
        if peer_sent is not None and rcv_nxt > peer_sent:
            self._fail("delivery-of-unsent-data", now, flow=conn.flow,
                       detail=f"rcv_nxt {rcv_nxt} beyond peer's highest "
                              f"sent sequence {peer_sent}")
        self._check_seq(conn, now)

    def _check_seq(self, conn, now: float) -> None:
        una, nxt, top = conn.snd_una, conn.snd_nxt, conn.snd_max
        if not (isinstance(una, int) and isinstance(nxt, int)
                and isinstance(top, int)):
            # A float sequence number compares fine but drifts once
            # arithmetic rounds it; catch the write, not the drift.
            self._fail("sequence-integer", now, flow=conn.flow,
                       detail=f"snd_una={una!r} snd_nxt={nxt!r} "
                              f"snd_max={top!r}")
        if not (una <= nxt <= top):
            self._fail("sequence-space", now, flow=conn.flow,
                       detail=f"snd_una={una} snd_nxt={nxt} snd_max={top}")

    # ------------------------------------------------------------------
    # Congestion-window hooks (called from CongestionControl)
    # ------------------------------------------------------------------
    def on_cwnd(self, cc, old: int, new: int, now: float) -> None:
        from repro.core.vegas import VegasCC
        from repro.tcp import constants as C

        flow = getattr(cc.conn, "flow", None)
        mss = cc.conn.mss
        if new <= 0:
            self._fail("cwnd-positive", now, subject=cc.name, flow=flow,
                       detail=f"cwnd set to {new}")
        if new > C.MAX_CWND + _CWND_SLACK_SEGMENTS * mss:
            self._fail("cwnd-bounded", now, subject=cc.name, flow=flow,
                       detail=f"cwnd {new} above MAX_CWND {C.MAX_CWND}")
        if (isinstance(cc, VegasCC) and new > old and new - old > mss
                and not getattr(cc, "in_recovery", False)):
            # Vegas only ever grows additively: one segment per ACK in
            # slow start, one segment per RTT from the CAM decision.
            # Recovery is exempt — Vegas keeps Reno's fast-recovery
            # inflation (cwnd = ssthresh + 3 MSS on entry).
            self._fail("vegas-additive-growth", now, subject=cc.name,
                       flow=flow,
                       detail=f"cwnd jumped {old} -> {new} (> 1 MSS)")

    def on_ssthresh(self, cc, old: int, new: int, now: float) -> None:
        from repro.core.reno import RenoCC

        flow = getattr(cc.conn, "flow", None)
        if new <= 0:
            self._fail("ssthresh-positive", now, subject=cc.name, flow=flow,
                       detail=f"ssthresh set to {new}")
        if (isinstance(cc, RenoCC) and new < old
                and getattr(cc, "in_recovery", False)):
            # A Reno-family controller halves when *entering* recovery
            # (or on a timeout, which terminates recovery first); a
            # decrease mid-recovery means two cuts in one loss epoch.
            self._fail("reno-single-halving", now, subject=cc.name, flow=flow,
                       detail=f"ssthresh cut {old} -> {new} while already "
                              "in recovery")

    def on_ss_decision(self, cc, diff_buffers: float, valid: bool,
                       grew: bool, exited: bool, now: float) -> None:
        """Vegas made a slow-start CAM decision (γ check, §3.3).

        *valid* says the window stayed fixed over the measured RTT,
        *grew* that it grew.  Only CAM exits reach this hook; leaving
        slow start because ``cwnd >= ssthresh`` or on a loss is not a
        γ decision.  The window may grow only in the RTT after a
        valid measurement with Diff <= γ, so two consecutive decisions
        must not both have seen it grow.
        """
        flow = getattr(cc.conn, "flow", None)
        if grew and self._ss_grew.get(id(cc)):
            self._fail("vegas-ss-every-other-rtt", now, subject=cc.name,
                       flow=flow,
                       detail="window grew over two consecutive "
                              "slow-start RTTs")
        self._ss_grew[id(cc)] = grew
        crossed = diff_buffers > cc.gamma
        if exited and not crossed:
            detail = f"left slow start with Diff {diff_buffers:.3f} <= "
        elif valid and crossed and not exited:
            detail = f"kept slow start with valid Diff {diff_buffers:.3f} > "
        else:
            return
        self._fail("vegas-ss-gamma", now, subject=cc.name, flow=flow,
                   detail=f"{detail}gamma {cc.gamma}")

    def on_loss_decrease(self, cc, lost_sent_at: Optional[float],
                         now: float) -> None:
        """Vegas cut its window for a loss (§3.1).

        *lost_sent_at* is when the lost segment was sent, or ``None``
        for a coarse timeout.  A retransmission may cut the window only
        for a segment sent after the previous cut — one decrease per
        send-rate epoch; a timeout always may, and opens a new epoch.
        """
        last = self._last_decrease.get(id(cc))
        if (lost_sent_at is not None and last is not None
                and lost_sent_at <= last):
            self._fail("vegas-one-decrease-per-epoch", now, subject=cc.name,
                       flow=getattr(cc.conn, "flow", None),
                       detail=f"cut for a segment sent at "
                              f"{lost_sent_at:.6f}, not after the last "
                              f"cut at {last:.6f}")
        self._last_decrease[id(cc)] = now
        self._ss_grew.pop(id(cc), None)

    def on_cam_decision(self, cc, diff_buffers: float, action: int,
                        now: float) -> None:
        """Vegas made a linear-mode CAM decision (+1/0/-1 segments)."""
        flow = getattr(cc.conn, "flow", None)
        if diff_buffers < 0:
            self._fail("vegas-diff-nonnegative", now, subject=cc.name,
                       flow=flow, detail=f"Diff = {diff_buffers:.3f}")
        if action == 1 and not diff_buffers < cc.alpha:
            self._fail("vegas-cam-alpha", now, subject=cc.name, flow=flow,
                       detail=f"increase with Diff {diff_buffers:.3f} "
                              f">= alpha {cc.alpha}")
        elif action == -1 and not diff_buffers > cc.beta:
            self._fail("vegas-cam-beta", now, subject=cc.name, flow=flow,
                       detail=f"decrease with Diff {diff_buffers:.3f} "
                              f"<= beta {cc.beta}")
        elif action == 0 and not (cc.alpha <= diff_buffers <= cc.beta):
            self._fail("vegas-cam-hold", now, subject=cc.name, flow=flow,
                       detail=f"hold with Diff {diff_buffers:.3f} outside "
                              f"[{cc.alpha}, {cc.beta}]")

    # ------------------------------------------------------------------
    # Structural audits
    # ------------------------------------------------------------------
    def audit(self, now: float) -> None:
        """Re-check every registered component's conservation laws."""
        self.audits += 1
        for queue in self._queues:
            self._audit_queue(queue, now)
        for channel in self._channels:
            self._audit_channel(channel, now)
        for lan in self._lans:
            self._audit_lan(lan, now)
        for conn in self._connections:
            self._audit_connection(conn, now)

    def _audit_queue(self, queue, now: float) -> None:
        depth = len(queue)
        if queue.capacity is not None and depth > queue.capacity:
            self._fail("queue-occupancy", now, subject=queue.name,
                       detail=f"depth {depth} > capacity {queue.capacity}")
        if queue.enqueued != queue.dequeued + depth:
            self._fail("queue-conservation", now, subject=queue.name,
                       detail=f"enqueued {queue.enqueued} != dequeued "
                              f"{queue.dequeued} + depth {depth}")
        if queue.dropped < 0 or queue.dropped != len(queue.drops):
            self._fail("queue-drop-accounting", now, subject=queue.name,
                       detail=f"dropped {queue.dropped} vs "
                              f"{len(queue.drops)} recorded drops")

    def _audit_channel(self, channel, now: float) -> None:
        in_transit = channel.in_transit
        if in_transit < 0:
            self._fail("link-conservation", now, subject=channel.name,
                       detail=f"in_transit went negative ({in_transit})")
        absorbed = extra = 0
        if channel.faults is not None:
            absorbed = channel.faults.absorbed
            extra = channel.faults.extra
        # Stochastic channel loss (VariableRateChannel) destroys
        # packets at their delivery instant, exactly like an absorbed
        # fault.
        absorbed += getattr(channel, "stochastic_losses", 0)
        accounted = in_transit + channel.packets_delivered - extra + absorbed
        if channel.queue.dequeued != accounted:
            self._fail(
                "link-conservation", now, subject=channel.name,
                detail=f"dequeued {channel.queue.dequeued} != in_transit "
                       f"{in_transit} + delivered {channel.packets_delivered}"
                       f" - duplicated {extra} + absorbed {absorbed}")

    def _audit_lan(self, lan, now: float) -> None:
        if lan.in_transit < 0:
            self._fail("lan-conservation", now, subject=lan.name,
                       detail=f"in_transit went negative ({lan.in_transit})")
        accounted = lan.in_transit + lan.packets_delivered
        # Idle-medium sends bypass the attachment queue entirely, so
        # conservation is over dequeued + bypassed transmissions.
        entered = lan.queue.dequeued + lan.bypassed
        if entered != accounted:
            self._fail("lan-conservation", now, subject=lan.name,
                       detail=f"dequeued {lan.queue.dequeued} + bypassed "
                              f"{lan.bypassed} != in_transit "
                              f"{lan.in_transit} + delivered "
                              f"{lan.packets_delivered}")

    def _audit_connection(self, conn, now: float) -> None:
        self._check_seq(conn, now)
        sendbuf = conn.sendbuf
        if not 0 <= sendbuf.in_buffer <= sendbuf.capacity:
            self._fail("sendbuf-occupancy", now, flow=conn.flow,
                       detail=f"{sendbuf.in_buffer} bytes held, capacity "
                              f"{sendbuf.capacity}")
        buffered = conn.recv.reasm.buffered_bytes
        if buffered > conn.recv.rcvbuf:
            self._fail("reassembly-occupancy", now, flow=conn.flow,
                       detail=f"{buffered} out-of-order bytes > advertised "
                              f"window {conn.recv.rcvbuf}")
        if conn.cc.cwnd <= 0:
            self._fail("cwnd-positive", now, subject=conn.cc.name,
                       flow=conn.flow, detail=f"cwnd is {conn.cc.cwnd}")

    def _audit_drained(self, now: float) -> None:
        """Final accounting once the event heap is fully drained."""
        for channel in self._channels:
            if channel.in_transit != 0:
                self._fail("packets-vanished", now, subject=channel.name,
                           detail=f"{channel.in_transit} packet(s) still "
                                  "marked in flight with no pending events")
            if channel.faults is not None and channel.faults.held:
                self._fail("packets-vanished", now, subject=channel.name,
                           detail=f"{channel.faults.held} packet(s) held by "
                                  "the fault injector with no pending events")
        for lan in self._lans:
            if lan.in_transit != 0:
                self._fail("packets-vanished", now, subject=lan.name,
                           detail=f"{lan.in_transit} packet(s) still marked "
                                  "in flight with no pending events")


@contextmanager
def checking(checker: Optional[InvariantChecker] = None, mode: str = "raise"):
    """Context manager: run a block with an armed checker.

    ::

        with checking() as chk:
            run_experiment()
        assert not chk.violations

    A fresh :class:`InvariantChecker` is built unless one is passed in.
    """
    if checker is None:
        checker = InvariantChecker(mode=mode)
    with armed(checker=checker):
        yield checker
