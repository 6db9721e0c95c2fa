"""TCP Vegas congestion control — the paper's contribution.

Implements the three techniques of §3:

**Technique 1 — new retransmission mechanism (§3.1).**  The sender
reads the clock for every segment transmitted (the connection keeps
per-segment fine timestamps).  On a *duplicate* ACK, if the first
unacknowledged segment has been outstanding longer than the
fine-grained RTO, it is retransmitted immediately — no need to wait
for three duplicates.  On the first or second *non-duplicate* ACK
after a retransmission, the same check runs again, catching further
segments lost before the retransmission.  The congestion window is
decreased only for losses that occurred at the current sending rate:
a retransmission triggers a decrease only if the lost segment was
(re)sent after the previous decrease.

**Technique 2 — congestion avoidance mechanism, CAM (§3.2).**  Once
per RTT a distinguished segment is timed; when its ACK arrives the
sender computes::

    Expected = WindowSize / BaseRTT
    Actual   = bytes transmitted during the RTT / sampled RTT
    Diff     = Expected - Actual        (>= 0 by definition)

expressed in router buffers (``Diff * BaseRTT / MSS``).  When
``Diff < α`` the window grows by one segment over the next RTT; when
``Diff > β`` it shrinks by one segment; otherwise it stays put.  The
connection thus tries to keep between α and β extra segments queued
in the network.  ``BaseRTT`` is the minimum RTT observed; if Actual
ever exceeds Expected, BaseRTT is reset to the latest sample, exactly
as the paper prescribes.

**Technique 3 — modified slow-start (§3.3).**  During slow start the
window doubles only every *other* RTT; in between it stays fixed so a
valid Expected/Actual comparison can be made.  When ``Diff`` exceeds
the ``γ`` threshold, Vegas leaves slow start for the linear
increase/decrease mode (trimming the window by 1/8 — the SIGCOMM text
does not give the factor; this follows the authors' follow-up
description and is configurable).

All three techniques can be disabled individually (``enable_*``
flags), which the ``ablation``/``figure4`` cells use to attribute Vegas' gains.
Vegas retains Reno's coarse-grained timeout as a last resort — under
heavy congestion it "falls back" to Reno, as §6 discusses.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.base import CongestionControl
from repro.tcp import constants as C
from repro.trace.records import Kind

#: Mode tags.
SLOW_START = "slow-start"
LINEAR = "linear"


class VegasCC(CongestionControl):
    """Vegas: proactive delay-based congestion control.

    Args:
        alpha: lower CAM threshold in router buffers (paper: 1 or 2).
        beta: upper CAM threshold in router buffers (paper: 3 or 4).
        gamma: slow-start exit threshold in router buffers.
        enable_cam: technique 2 on/off (ablation hook).
        enable_fine_retransmit: technique 1 on/off (ablation hook).
        enable_modified_slowstart: technique 3 on/off (ablation hook).
        fine_loss_factor: multiplicative window cut when a loss is
            detected by the fine-grained mechanism (3/4; gentler than
            Reno's 1/2 because detection is earlier and surer).
        ss_exit_factor: window trim on leaving slow start via γ.
        paced_slow_start: §3.3's future work, implemented: "use rate
            control during slow-start, using a rate defined by the
            current window size and the BaseRTT".  During slow start
            transmissions are paced at ``cwnd / BaseRTT`` instead of
            being clocked out in back-to-back bursts of two per ACK,
            which removes the burst overshoot at under-buffered
            bottlenecks.
    """

    name = "vegas"

    def __init__(self, alpha: float = 2.0, beta: float = 4.0,
                 gamma: float = 1.0,
                 initial_cwnd_segments: int = 1,
                 dupack_threshold: int = C.DUPACK_THRESHOLD,
                 enable_cam: bool = True,
                 enable_fine_retransmit: bool = True,
                 enable_modified_slowstart: bool = True,
                 fine_loss_factor: float = 0.75,
                 ss_exit_factor: float = 0.875,
                 paced_slow_start: bool = False):
        super().__init__(initial_cwnd_segments)
        if not alpha < beta:
            raise ValueError("Vegas requires alpha < beta")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.dupack_threshold = dupack_threshold
        self.enable_cam = enable_cam
        self.enable_fine_retransmit = enable_fine_retransmit
        self.enable_modified_slowstart = enable_modified_slowstart
        self.fine_loss_factor = fine_loss_factor
        self.ss_exit_factor = ss_exit_factor
        self.paced_slow_start = paced_slow_start

        self.mode = SLOW_START
        self.ss_grow = True               # exponential growth allowed this RTT
        self.in_recovery = False
        self.last_decrease_time = float("-inf")
        self.acks_after_retx = 0          # §3.1 second bullet counter
        # Distinguished-segment measurement, one epoch per RTT: the
        # segment's end (None between epochs), the window when it left,
        # the largest flight seen since, and the epoch's RTT samples.
        self._cam_end: Optional[int] = None
        self._cam_window = 0
        self._cam_max_flight = 0
        self._cam_samples: List[float] = []
        # Counters for analysis/tests.
        self.cam_decisions = 0
        self.cam_increases = 0
        self.cam_decreases = 0
        self.early_retransmits = 0

    # ------------------------------------------------------------------
    # Sending: distinguished-segment selection
    # ------------------------------------------------------------------
    def on_segment_sent(self, seq: int, length: int, end_seq: int,
                        is_retransmit: bool, now: float) -> None:
        if length == 0:
            return
        cam_end = self._cam_end
        if is_retransmit:
            # A retransmission overlapping the distinguished segment
            # invalidates the measurement.
            if cam_end is not None and seq < cam_end <= end_seq:
                self._cam_end = None
            return
        if cam_end is None:
            self._cam_end = end_seq
            # Expected = WindowSize / BaseRTT with WindowSize "the size
            # of the current congestion window" (§3.2).
            self._cam_window = self.cwnd
            self._cam_max_flight = self.conn.flight_size()
            self._cam_samples = []
        else:
            flight = self.conn.flight_size()
            if flight > self._cam_max_flight:
                self._cam_max_flight = flight

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_new_ack(self, acked_bytes: int, now: float,
                   rtt_sample: Optional[float]) -> None:
        mss = self.conn.mss
        # Collect per-segment clock samples for the current CAM epoch.
        # A robust summary of them drives the rate comparison: single
        # samples can be inflated by up to 200 ms by delayed ACKs,
        # which at small windows would read as phantom queueing.
        if rtt_sample is not None and self._cam_end is not None:
            self._cam_samples.append(rtt_sample)
        if self.in_recovery:
            # Recovery ACK (Reno-style deflation after a 3-dup-ack event).
            self.in_recovery = False
            self._set_cwnd(max(self.ssthresh, 2 * mss), now)

        # §3.1, second bullet: on the first/second non-duplicate ACK
        # after a retransmission, check the next unacked segment's age.
        if self.enable_fine_retransmit and self.acks_after_retx > 0:
            self.acks_after_retx -= 1
            self._check_stale_first_unacked(now, path=2)

        # Once-per-RTT congestion-avoidance decision.
        cam_end = self._cam_end
        if cam_end is not None and self.conn.snd_una >= cam_end:
            self._cam_decision(now)
            self._cam_end = None

        # Per-ACK window growth applies only in slow start.
        if self.mode == SLOW_START and not self.in_recovery:
            cwnd = self.cwnd
            if cwnd >= self.ssthresh:
                # Reno's own slow-start exit (relevant after timeouts).
                self._leave_slow_start(now, trim=False)
            elif (not self.enable_modified_slowstart) or self.ss_grow:
                self._set_cwnd(min(C.MAX_CWND, cwnd + mss), now)
        elif self.mode == LINEAR and not self.enable_cam:
            # CAM ablated: fall back to Reno congestion avoidance.
            cwnd = self.cwnd
            self._set_cwnd(min(C.MAX_CWND,
                               cwnd + max(1, mss * mss // cwnd)),
                           now)

    def _leave_slow_start(self, now: float, trim: bool) -> None:
        if self.mode == SLOW_START:
            self.mode = LINEAR
            if trim:
                trimmed = int(self.cwnd * self.ss_exit_factor)
                self._set_cwnd(max(2 * self.conn.mss,
                                   (trimmed // self.conn.mss) * self.conn.mss),
                               now)
            self.conn.tracer.record(now, Kind.SS_MODE, 0)

    # ------------------------------------------------------------------
    # Technique 2: the CAM decision (once per RTT)
    # ------------------------------------------------------------------
    def _cam_decision(self, now: float) -> None:
        fine = self.conn.fine_rtt
        base_rtt = fine.base_rtt
        # The RTT used for the rate comparison is the *lower median* of
        # the epoch's per-segment clock samples.  The minimum would be
        # blind to a standing queue (one lucky sample reads diff = 0);
        # the mean is skewed by the one delayed-ACK-inflated sample per
        # window (up to +200 ms).  The lower median is robust to both —
        # the same reason production Vegas implementations filter their
        # per-ACK samples rather than using any single one.
        rtt = self._epoch_rtt()
        cam_window = self._cam_window
        if base_rtt is None or rtt is None or rtt <= 0 \
                or cam_window <= 0:
            return
        mss = self.conn.mss
        # "A valid comparison of the expected and actual rates" (§3.3)
        # requires the window to have stayed fixed over the
        # measurement.
        valid = (self.cwnd == cam_window)
        # An application-limited flow never fills its window; comparing
        # its Actual against a window-based Expected would shrink the
        # window without any congestion.  Skip such measurements.
        cwnd_limited = self._cam_max_flight + mss >= cam_window
        if not cwnd_limited:
            return
        # Diff computed from the distinguished segment's window and the
        # epoch-minimum RTT sample: Expected - Actual = W/base - W/rtt,
        # i.e. W x (1 - base/rtt) bytes of the connection's own data
        # sitting in router queues.
        expected = cam_window / base_rtt
        actual = cam_window / rtt
        if actual > expected:
            # "Actual > Expected implies that we need to change BaseRTT
            # to the latest sampled RTT."  (With min-tracking BaseRTT
            # this only fires on genuine new minimums.)
            fine.set_base_rtt(rtt)
            expected = actual
        diff_rate = max(0.0, expected - actual)
        diff_buffers = diff_rate * fine.base_rtt / mss
        self.cam_decisions += 1
        self.conn.tracer.record(now, Kind.CAM, expected, actual)

        if self.mode == SLOW_START and self.enable_modified_slowstart:
            # Alternation between doubling RTTs and fixed RTTs emerges
            # from measurement validity: a measurement taken while the
            # window grew marks the next RTT as a hold; the hold RTT
            # yields a valid measurement and the γ check, after which
            # growth resumes.
            if valid:
                if diff_buffers > self.gamma:
                    # γ crossed: the pipe is filling — stop doubling.
                    self._leave_slow_start(now, trim=True)
                else:
                    self.ss_grow = True
            else:
                self.ss_grow = False
            if self._checker is not None:
                self._checker.on_ss_decision(
                    self, diff_buffers, valid, self.cwnd > cam_window,
                    self.mode != SLOW_START, now)
            self.conn.tracer.record(now, Kind.CAM_DECISION,
                                    diff_buffers * 1000.0, 0)
            return
        if self.mode != LINEAR or not self.enable_cam:
            return
        if not valid:
            # The window changed during this measurement (the
            # adjustment made one RTT ago); hold this RTT.
            return
        if diff_buffers < self.alpha:
            self.cam_increases += 1
            self._set_cwnd(min(C.MAX_CWND, self.cwnd + mss), now)
            action = 1
        elif diff_buffers > self.beta:
            self.cam_decreases += 1
            self._set_cwnd(max(2 * mss, self.cwnd - mss), now)
            action = -1
        else:
            action = 0
        if self._checker is not None:
            self._checker.on_cam_decision(self, diff_buffers, action, now)
        self.conn.tracer.record(now, Kind.CAM_DECISION,
                                diff_buffers * 1000.0, action)

    def pacing_rate(self) -> Optional[float]:
        """Rate-controlled slow start (§3.3 future work).

        Active only in slow-start mode with a measured BaseRTT: pace
        at one window per BaseRTT — "a rate defined by the current
        window size and the BaseRTT" — so segments enter the
        bottleneck smoothly instead of in per-ACK bursts of two.
        """
        if not self.paced_slow_start or self.mode != SLOW_START:
            return None
        base_rtt = self.conn.fine_rtt.base_rtt
        if base_rtt is None or base_rtt <= 0:
            return None
        return self.cwnd / base_rtt

    def _epoch_rtt(self) -> Optional[float]:
        """Lower median of the current epoch's RTT samples."""
        samples = self._cam_samples
        if not samples:
            return None
        ordered = sorted(samples)
        return ordered[(len(ordered) - 1) // 2]

    # ------------------------------------------------------------------
    # Technique 1: fine-grained retransmission
    # ------------------------------------------------------------------
    def on_dup_ack(self, count: int, now: float) -> None:
        retransmitted_now = False
        if self.enable_fine_retransmit:
            retransmitted_now = self._check_stale_first_unacked(now, path=1)
        if (count == self.dupack_threshold and not self.in_recovery
                and not retransmitted_now):
            # Standard fast retransmit, with Vegas' epoch guard on the
            # window decrease.
            lost_sent_at = self.conn.first_unacked_send_time()
            self.conn.retransmit_first_unacked("fast")
            self.acks_after_retx = 2
            if self._decrease_allowed(lost_sent_at):
                if self._checker is not None:
                    self._checker.on_loss_decrease(self, lost_sent_at, now)
                self._set_ssthresh(self.half_window(), now)
                self.in_recovery = True
                self._set_cwnd(self.ssthresh + self.dupack_threshold * self.conn.mss,
                               now)
                self.last_decrease_time = now
                self._leave_slow_start(now, trim=False)
        elif count > self.dupack_threshold and self.in_recovery:
            self._set_cwnd(min(C.MAX_CWND, self.cwnd + self.conn.mss), now)

    def _check_stale_first_unacked(self, now: float, path: int) -> bool:
        """Retransmit the first unacked segment if older than the fine RTO.

        Returns True when a retransmission was performed.
        """
        sent_at = self.conn.first_unacked_send_time()
        if sent_at is None or now - sent_at <= self.conn.fine_rtt.rto:
            return False
        self.early_retransmits += 1
        reason = "fine-dupack" if path == 1 else "fine-ack"
        self.conn.retransmit_first_unacked(reason)
        self.acks_after_retx = 2
        if self._decrease_allowed(sent_at):
            if self._checker is not None:
                self._checker.on_loss_decrease(self, sent_at, now)
            mss = self.conn.mss
            cut = int(self.cwnd * self.fine_loss_factor)
            cut = max(2 * mss, (cut // mss) * mss)
            self._set_cwnd(cut, now)
            self._set_ssthresh(max(2 * mss, cut), now)
            self.last_decrease_time = now
            self._leave_slow_start(now, trim=False)
        return True

    def _decrease_allowed(self, lost_segment_sent_at: Optional[float]) -> bool:
        """§3.1: decrease only for losses at the *current* sending rate."""
        return (lost_segment_sent_at is not None
                and lost_segment_sent_at > self.last_decrease_time)

    # ------------------------------------------------------------------
    # Coarse timeout: fall back to Reno behaviour
    # ------------------------------------------------------------------
    def on_coarse_timeout(self, now: float) -> None:
        # A timeout opens a new loss epoch: recovery (if any) ends
        # before the window is cut, so every ssthresh decrease happens
        # outside recovery (the invariant the runtime checker audits).
        if self._checker is not None:
            self._checker.on_loss_decrease(self, None, now)
        self.in_recovery = False
        self._set_ssthresh(self.half_window(), now)
        self._set_cwnd(self.conn.mss, now)
        self.mode = SLOW_START
        self.ss_grow = True
        self.acks_after_retx = 0
        self.last_decrease_time = now
        self._cam_end = None
        self.conn.tracer.record(now, Kind.SS_MODE, 1)
