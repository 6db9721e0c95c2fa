"""Round-trip-time estimators.

Two estimators coexist, mirroring §3.1 of the paper:

* :class:`CoarseRttEstimator` — the BSD Reno estimator.  RTT is
  measured in 500 ms slow-timer ticks (one timed segment at a time,
  Karn's rule applied by the caller), smoothed with Jacobson/Karels
  gains, and clamped to a 2-tick (1 second) minimum RTO.  This is why
  the paper observed ~1100 ms recoveries where ~300 ms would do.

* :class:`FineRttEstimator` — Vegas' estimator.  The sender timestamps
  every segment with the system clock; samples are exact floats, the
  same smoothing applies, and the RTO floor is tiny.  Vegas uses this
  timeout for its check-on-duplicate-ACK retransmissions.

State is plain ``__slots__`` attributes; ``None`` marks a value not
yet measured (``srtt`` before the first sample, ``base_rtt``,
``latest``).  Every float accumulator is written through ``float()``
so an integer tick sample reads back as ``3.0``, not ``3``, and the
reprs that snapshots and traces print stay stable.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp import constants as C


class CoarseRttEstimator:
    """Jacobson/Karels smoothing over tick-granularity samples.

    All state is in units of slow-timer ticks.  ``rto_ticks`` already
    includes clamping but not exponential backoff — the connection
    applies its own backoff shift.
    """

    __slots__ = ("min_rto_ticks", "max_rto_ticks", "srtt", "rttvar",
                 "rto_ticks", "samples")

    def __init__(self,
                 min_rto_ticks: int = C.MIN_RTO_TICKS,
                 max_rto_ticks: int = C.MAX_RTO_TICKS,
                 initial_rto_ticks: int = C.INITIAL_RTO_TICKS):
        self.min_rto_ticks = min_rto_ticks
        self.max_rto_ticks = max_rto_ticks
        #: Smoothed RTT in ticks (``None`` before the first sample).
        self.srtt: Optional[float] = None
        #: Mean deviation, ticks.
        self.rttvar = 0.0
        self.rto_ticks = initial_rto_ticks
        self.samples = 0

    def update(self, sample_ticks: float) -> None:
        """Fold one RTT sample (in ticks) into the estimate."""
        if sample_ticks < 0:
            raise ValueError("RTT sample must be non-negative")
        self.samples += 1
        srtt = self.srtt
        if srtt is None:
            srtt = sample_ticks
            rttvar = sample_ticks / 2.0
        else:
            err = sample_ticks - srtt
            srtt += err / 8.0
            rttvar = self.rttvar
            rttvar += (abs(err) - rttvar) / 4.0
        self.srtt = float(srtt)
        self.rttvar = float(rttvar)
        raw = srtt + max(1.0, 4.0 * rttvar)
        self.rto_ticks = int(min(self.max_rto_ticks,
                                 max(self.min_rto_ticks, round(raw))))

    def backed_off_rto(self, shift: int) -> int:
        """RTO in ticks after *shift* exponential backoffs."""
        return min(self.max_rto_ticks, self.rto_ticks << shift)


class FineRttEstimator:
    """Jacobson/Karels smoothing over exact (float-second) samples.

    Also tracks *BaseRTT*, the minimum RTT ever observed, which Vegas'
    congestion avoidance mechanism uses as the uncongested reference
    (§3.2: "Vegas sets BaseRTT to the minimum of all measured round
    trip times").
    """

    __slots__ = ("min_rto", "srtt", "rttvar", "rto", "base_rtt", "latest",
                 "samples")

    def __init__(self,
                 min_rto: float = C.MIN_FINE_RTO,
                 initial_rto: float = C.INITIAL_FINE_RTO):
        self.min_rto = min_rto
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = float(initial_rto)
        self.base_rtt: Optional[float] = None
        self.latest: Optional[float] = None
        self.samples = 0

    def update(self, sample: float, update_base: bool = True) -> None:
        """Fold one RTT sample (seconds) into the estimate and BaseRTT.

        ``update_base=False`` excludes the sample from BaseRTT; the
        connection uses this for handshake (SYN) samples, whose 40-byte
        segments pay far less serialization than data segments and
        would otherwise make every data RTT look congested.
        """
        if sample < 0:
            raise ValueError("RTT sample must be non-negative")
        self.samples += 1
        self.latest = float(sample)
        if update_base:
            base = self.base_rtt
            if base is None or sample < base:
                self.base_rtt = float(sample)
        srtt = self.srtt
        if srtt is None:
            srtt = sample
            rttvar = sample / 2.0
        else:
            err = sample - srtt
            srtt += err / 8.0
            rttvar = self.rttvar
            rttvar += (abs(err) - rttvar) / 4.0
        self.srtt = float(srtt)
        self.rttvar = float(rttvar)
        self.rto = float(max(self.min_rto, srtt + 4.0 * rttvar))

    def set_base_rtt(self, value: float) -> None:
        """Override BaseRTT (Vegas does this when Actual > Expected)."""
        self.base_rtt = float(value)
