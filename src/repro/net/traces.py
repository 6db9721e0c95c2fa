"""Time-varying bandwidth profiles for trace-driven links.

Every link in the paper's experiments drains at a static bandwidth;
this module adds the workload family where that assumption breaks — the
mahimahi-style emulated paths (LTE/WiFi-like cells, stepped capacity,
outages) on which delay-based congestion detection is most stressed.

A :class:`BandwidthTrace` is a piecewise-constant rate profile
``rate(t)`` in bytes/second, optionally cyclic with a fixed period.
The only operations links need are integrals of that profile:

* :meth:`BandwidthTrace.bytes_between` — bytes the link can deliver
  over ``[t0, t1]`` (the delivery *opportunity*, an upper bound on what
  any sender can push through);
* :meth:`BandwidthTrace.time_to_send` — the exact serialisation time
  of ``n`` bytes starting at ``t``, integrating across every upcoming
  rate change (including zero-rate outage segments).

Profiles come from the generator functions (``constant_trace``,
``stepped_trace``, ``random_walk_trace``, ``cellular_trace``,
``outage_trace`` — mirroring the Stanford replication repo's
constant/random-walk logfile generators) or from a file in mahimahi
delivery-opportunity format (:func:`load_mahimahi` /
:func:`save_mahimahi`): one integer millisecond timestamp per line,
each an opportunity to deliver one MTU-sized packet, the whole file
repeating cyclically.

Stochastic generators take an explicit ``random.Random`` so traces are
a deterministic function of (parameters, seed): the same scenario cell
always builds the bit-identical trace, which is what keeps the
harness's content-hash cache and the committed baselines meaningful.

:class:`TraceSpec` is the frozen, hashable description used by arena
scenarios: a generator name plus its parameters, built into a concrete
trace (with the cell's seeded stream) at cohort-construction time.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError

#: mahimahi's delivery-opportunity quantum: one MTU-sized packet.
MTU = 1500

#: One delivery-opportunity bin of the file format, in seconds (1 ms).
BIN_S = 1e-3

#: Epsilon (in packets) absorbing float fuzz when quantising a trace
#: into delivery opportunities; see :func:`save_mahimahi`.
_QUANT_EPS = 1e-6


class BandwidthTrace:
    """A piecewise-constant bandwidth profile, optionally cyclic.

    ``times`` are segment start offsets in seconds (``times[0]`` must
    be 0.0, strictly increasing); segment *i* drains at ``rates[i]``
    bytes/second over ``[times[i], times[i+1])``.  With ``period``
    set, the final segment ends at ``period`` and the whole profile
    repeats forever; without it, the final rate (which must then be
    positive) holds forever.

    Zero-rate segments model outages: nothing drains, but time spent
    inside them is integrated exactly by :meth:`time_to_send`, so a
    packet whose serialisation straddles an outage is delivered at the
    correct later instant.
    """

    __slots__ = ("times", "rates", "period", "name",
                 "_prefix", "_cycle_bytes", "_constant")

    def __init__(self, times: Sequence[float], rates: Sequence[float],
                 period: Optional[float] = None, name: str = "trace"):
        times = tuple(float(t) for t in times)
        rates = tuple(float(r) for r in rates)
        if period is not None:
            period = float(period)
        if not times or len(times) != len(rates):
            raise ConfigurationError(
                f"trace {name!r}: times and rates must be equal-length and "
                f"non-empty (got {len(times)} times, {len(rates)} rates)")
        # NaN compares false with everything, so it would slip past the
        # ordering checks below; an infinite start poisons the integrals.
        for value in times + ((period,) if period is not None else ()):
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"trace {name!r}: segment starts and the period must "
                    f"be finite, got {value!r}")
        if times[0] != 0.0:
            raise ConfigurationError(
                f"trace {name!r}: first segment must start at t=0.0")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise ConfigurationError(
                    f"trace {name!r}: segment starts must be strictly "
                    f"increasing ({b} follows {a})")
        for rate in rates:
            if rate < 0 or not math.isfinite(rate):
                raise ConfigurationError(
                    f"trace {name!r}: rates must be finite and "
                    f"non-negative, got {rate!r}")
        if period is not None and period <= times[-1]:
            raise ConfigurationError(
                f"trace {name!r}: period ({period}) must exceed the "
                f"last segment start ({times[-1]})")
        self.times = times
        self.rates = rates
        self.period = period
        self.name = name
        # Prefix byte integrals at each segment start, for O(log n)
        # rate integration.
        prefix: List[float] = [0.0]
        for i in range(len(times) - 1):
            prefix.append(prefix[-1] + rates[i] * (times[i + 1] - times[i]))
        self._prefix = tuple(prefix)
        self._cycle_bytes = (None if period is None else
                             prefix[-1] + rates[-1] * (period - times[-1]))
        # Every term is non-negative, so the last integral is the
        # largest: past float range it is inf, and every difference of
        # integrals (bytes_between, time_to_send) is nan.
        total = prefix[-1] if period is None else self._cycle_bytes
        if not math.isfinite(total):
            raise ConfigurationError(
                f"trace {name!r}: the byte integral of the profile "
                f"overflows a float ({total!r})")
        if period is not None:
            if total <= 0:
                raise ConfigurationError(
                    f"trace {name!r}: a cycle must deliver at least one "
                    "byte (all-zero rate profiles never drain a queue)")
        elif rates[-1] <= 0:
            raise ConfigurationError(
                f"trace {name!r}: a non-cyclic trace must end on a "
                "positive rate (a zero tail would never finish a send)")
        # A flat profile — however it was segmented — serialises in
        # closed form, exactly matching the static Channel's
        # ``size / bandwidth``.  That equality is what the constant-
        # trace differential gate relies on.
        self._constant = all(r == rates[0] for r in rates) and rates[0] > 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        """True when the profile is one flat positive rate."""
        return self._constant

    @property
    def mean_rate(self) -> float:
        """Cycle-mean rate (bytes/second); the link's nominal bandwidth."""
        if self._constant:
            return self.rates[0]
        if self.period is not None:
            return self._cycle_bytes / self.period
        span = self.times[-1]
        if span <= 0:
            return self.rates[-1]
        return self._prefix[-1] / span

    @property
    def max_rate(self) -> float:
        return max(self.rates)

    @property
    def min_rate(self) -> float:
        return min(self.rates)

    def rate_at(self, t: float) -> float:
        """Instantaneous rate at absolute time *t* (bytes/second)."""
        if t < 0:
            raise ValueError(f"trace time must be non-negative, got {t}")
        if self._constant:
            return self.rates[0]
        if self.period is not None:
            t = t % self.period
        return self.rates[bisect_right(self.times, t) - 1]

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def _cum(self, t: float) -> float:
        """Integral of the rate over ``[0, t]`` (bytes)."""
        if t <= 0:
            return 0.0
        if self._constant:
            return self.rates[0] * t
        total = 0.0
        if self.period is not None:
            cycles, t = divmod(t, self.period)
            total = cycles * self._cycle_bytes
        i = bisect_right(self.times, t) - 1
        return total + self._prefix[i] + self.rates[i] * (t - self.times[i])

    def bytes_between(self, t0: float, t1: float) -> float:
        """Delivery opportunity over ``[t0, t1]``: the integral of the
        rate.  No sender can move more than this across the link in
        that interval; a saturated sender moves exactly this."""
        if t1 < t0:
            raise ValueError(f"bytes_between needs t0 <= t1, "
                             f"got [{t0}, {t1}]")
        got = self._cum(t1) - self._cum(t0)
        if math.isfinite(got):
            return got
        # An integral from t = 0 overflowed (inf - inf is nan): add the
        # interval's own non-negative pieces, which reach inf only when
        # the bytes of [t0, t1] themselves exceed float range.
        if self._constant:
            return self.rates[0] * (t1 - t0)
        if self.period is None:
            return self._span(t0, t1)
        c0, p0 = divmod(t0, self.period)
        c1, p1 = divmod(t1, self.period)
        if c0 == c1:
            return self._span(p0, p1)
        return (self._span(p0, self.period) + (c1 - c0 - 1) * self._cycle_bytes
                + self._span(0.0, p1))

    def _span(self, t0: float, t1: float) -> float:
        """Bytes over ``[t0, t1]`` within one cycle (or anywhere on a
        non-cyclic trace), summed from ``t0``'s segment, the whole
        segments between and ``t1``'s segment: no term overflows unless
        the total does."""
        i = bisect_right(self.times, t0) - 1
        j = bisect_right(self.times, t1) - 1
        if i == j:
            return self.rates[i] * (t1 - t0)
        return (self.rates[i] * (self.times[i + 1] - t0)
                + (self._prefix[j] - self._prefix[i + 1])
                + self.rates[j] * (t1 - self.times[j]))

    def time_to_send(self, nbytes: float, start: float = 0.0) -> float:
        """Seconds to serialise *nbytes* starting at *start*.

        The exact inverse of :meth:`bytes_between`: integrates the rate
        forward from *start*, crossing every rate change (and waiting
        out zero-rate outage segments) until *nbytes* have drained.
        For a constant trace this is exactly ``nbytes / rate`` — the
        same float division the static :class:`~repro.net.link.Channel`
        computes, which keeps the two bit-identical.
        """
        if nbytes <= 0:
            return 0.0
        if self._constant:
            return nbytes / self.rates[0]
        remaining = float(nbytes)
        elapsed = 0.0
        if self.period is not None and remaining > self._cycle_bytes:
            # Skip whole cycles in closed form: every full period
            # delivers exactly _cycle_bytes regardless of phase.
            cycles = math.ceil(remaining / self._cycle_bytes) - 1
            elapsed = cycles * self.period
            remaining -= cycles * self._cycle_bytes
        t = start + elapsed
        # Walk segments *by index*, with boundaries taken from the
        # canonical times[] table: only the first (possibly partial)
        # segment uses the float phase of *t*.  Advancing t by a
        # residual span can stall when the span is below t's ulp
        # (t += 4e-16 is a no-op at t ~ 10), but an index increment
        # always makes progress.  Bounded by ~two cycles: whole cycles
        # were skipped above.
        nseg = len(self.times)
        if self.period is not None:
            cycles_done, phase = divmod(t, self.period)
            base = cycles_done * self.period
        else:
            phase, base = t, 0.0
        i = bisect_right(self.times, phase) - 1
        for _ in range(3 * nseg + 8):
            if i + 1 < nseg:
                seg_end = self.times[i + 1]
            elif self.period is not None:
                seg_end = self.period
            else:
                seg_end = math.inf  # validated-positive infinite tail
            rate = self.rates[i]
            if rate > 0:
                capacity = rate * (seg_end - phase)
                if remaining <= capacity:
                    return base + phase + remaining / rate - start
                remaining -= capacity
            i += 1
            if i == nseg:
                i = 0
                base += self.period
                phase = 0.0
            else:
                phase = self.times[i]
        raise SimulationError(
            f"trace {self.name!r}: rate integration failed to converge "
            f"({remaining:.1f} bytes left after walking {3 * nseg + 8} "
            "segments)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cyc = f", period={self.period:g}s" if self.period is not None else ""
        return (f"BandwidthTrace({self.name}, {len(self.rates)} segment(s)"
                f"{cyc}, mean {self.mean_rate:.0f} B/s)")


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def constant_trace(rate: float, name: str = "constant") -> BandwidthTrace:
    """A flat profile: *rate* bytes/second forever."""
    if rate <= 0:
        raise ConfigurationError(
            f"constant trace rate must be positive, got {rate!r}")
    return BandwidthTrace((0.0,), (rate,), name=name)


def stepped_trace(steps: Iterable[Tuple[float, float]], cyclic: bool = True,
                  name: str = "steps") -> BandwidthTrace:
    """A square-wave profile from ``(duration, rate)`` pairs.

    With ``cyclic`` (the default) the step sequence repeats forever;
    otherwise the last step's rate holds after the sequence ends.
    """
    steps = [(float(d), float(r)) for d, r in steps]
    if not steps:
        raise ConfigurationError("stepped trace needs at least one step")
    for duration, _ in steps:
        if duration <= 0:
            raise ConfigurationError(
                f"step durations must be positive, got {duration!r}")
    times, rates = [], []
    t = 0.0
    for duration, rate in steps:
        times.append(t)
        rates.append(rate)
        t += duration
    return BandwidthTrace(times, rates, period=t if cyclic else None,
                          name=name)


def random_walk_trace(mean: float, step: float, rng: random.Random,
                      interval: float = 0.1, duration: float = 30.0,
                      floor: float = 0.0, ceiling: Optional[float] = None,
                      name: str = "random-walk") -> BandwidthTrace:
    """A seeded random-walk profile around *mean* (bytes/second).

    Every *interval* seconds the rate moves by a uniform draw in
    ``[-step, +step]``, clamped to ``[floor, ceiling]`` (ceiling
    defaults to ``2 * mean``), for *duration* seconds; the walk then
    repeats cyclically.  This mirrors the Stanford replication repo's
    ``gen_random_walk_logfile`` bandwidth process.
    """
    if mean <= 0 or step <= 0 or interval <= 0 or duration <= 0:
        raise ConfigurationError(
            "random-walk trace needs positive mean, step, interval and "
            f"duration (got mean={mean!r}, step={step!r}, "
            f"interval={interval!r}, duration={duration!r})")
    if ceiling is None:
        ceiling = 2.0 * mean
    if not 0 <= floor < ceiling:
        raise ConfigurationError(
            f"random-walk bounds need 0 <= floor < ceiling, got "
            f"[{floor!r}, {ceiling!r}]")
    nseg = max(1, int(round(duration / interval)))
    rate = min(max(mean, floor), ceiling)
    times, rates = [], []
    for i in range(nseg):
        times.append(i * interval)
        rates.append(rate)
        rate = min(ceiling, max(floor, rate + rng.uniform(-step, step)))
    return BandwidthTrace(times, rates, period=nseg * interval, name=name)


def cellular_trace(peak: float, trough: float, rng: random.Random,
                   ramp: float = 4.0, interval: float = 0.2,
                   fade_prob: float = 0.05, fade_depth: float = 0.1,
                   cycles: int = 4, name: str = "cellular") -> BandwidthTrace:
    """A cellular-like saw/burst profile (LTE scheduler caricature).

    Capacity ramps linearly from *peak* down to *trough* over *ramp*
    seconds and snaps back — the sawtooth a moving user sees as radio
    conditions decay and the cell re-schedules — discretised every
    *interval* seconds.  Each sample independently suffers a deep fade
    with probability *fade_prob*, multiplying the rate by *fade_depth*
    (a burst of near-outage, the "cliff" cellular traces show).  The
    profile covers *cycles* saw periods and repeats.
    """
    if peak <= 0 or not 0 < trough <= peak:
        raise ConfigurationError(
            f"cellular trace needs 0 < trough <= peak, got "
            f"trough={trough!r}, peak={peak!r}")
    if ramp <= 0 or interval <= 0 or ramp < interval:
        raise ConfigurationError(
            f"cellular trace needs 0 < interval <= ramp, got "
            f"interval={interval!r}, ramp={ramp!r}")
    if not 0 <= fade_prob < 1 or not 0 < fade_depth <= 1:
        raise ConfigurationError(
            f"cellular trace needs 0 <= fade_prob < 1 and "
            f"0 < fade_depth <= 1, got fade_prob={fade_prob!r}, "
            f"fade_depth={fade_depth!r}")
    if cycles < 1:
        raise ConfigurationError(f"cycles must be >= 1, got {cycles!r}")
    per_saw = max(1, int(round(ramp / interval)))
    times, rates = [], []
    for seg in range(cycles * per_saw):
        frac = (seg % per_saw) / per_saw
        rate = peak - (peak - trough) * frac
        if rng.random() < fade_prob:
            rate *= fade_depth
        times.append(seg * interval)
        rates.append(rate)
    return BandwidthTrace(times, rates,
                          period=cycles * per_saw * interval, name=name)


def outage_trace(rate: float, period: float, down: float,
                 name: str = "outage") -> BandwidthTrace:
    """An on/off profile: *rate* bytes/second, with the link dark for
    the last *down* seconds of every *period*-second cycle."""
    if rate <= 0:
        raise ConfigurationError(
            f"outage trace rate must be positive, got {rate!r}")
    if not 0 < down < period:
        raise ConfigurationError(
            f"outage trace needs 0 < down < period, got "
            f"down={down!r}, period={period!r}")
    return stepped_trace(((period - down, rate), (down, 0.0)),
                         cyclic=True, name=name)


# ----------------------------------------------------------------------
# mahimahi delivery-opportunity file format
# ----------------------------------------------------------------------

def save_mahimahi(trace: BandwidthTrace, path: str, mtu: int = MTU,
                  duration: Optional[float] = None) -> int:
    """Write *trace* as a mahimahi delivery-opportunity file.

    One line per opportunity: the integer millisecond (bin start) at
    which one *mtu*-sized packet may be delivered.  The quantiser runs
    a byte accumulator over 1 ms bins, so rates that are not a whole
    number of packets per bin carry their remainder forward instead of
    being truncated — total opportunities match the trace's byte
    integral to within one packet.  ``duration`` defaults to one full
    cycle (or 1 s for non-cyclic traces).  Returns the number of
    opportunities written.
    """
    if mtu <= 0:
        raise ConfigurationError(f"mtu must be positive, got {mtu!r}")
    if duration is None:
        duration = trace.period if trace.period is not None \
            else max(trace.times[-1], 1.0)
    nbins = int(round(duration / BIN_S))
    if nbins < 1:
        raise ConfigurationError(
            f"trace duration {duration!r} is shorter than one 1 ms bin")
    written = 0
    acc = 0.0
    with open(path, "w") as handle:
        for b in range(nbins):
            acc += trace.bytes_between(b * BIN_S, (b + 1) * BIN_S)
            n = int(acc / mtu + _QUANT_EPS)
            if n:
                handle.write(f"{b}\n" * n)
                written += n
                acc -= n * mtu
    return written


def load_mahimahi(path: str, mtu: int = MTU,
                  name: Optional[str] = None) -> BandwidthTrace:
    """Load a mahimahi delivery-opportunity file as a cyclic trace.

    Each line is an integer millisecond timestamp granting one
    *mtu*-sized delivery; ``k`` lines with timestamp ``t`` become a
    1 ms segment at ``k * mtu * 1000`` bytes/second, empty
    milliseconds become zero-rate segments, and the trace repeats with
    period ``max(timestamp) + 1`` ms (the file's loop point).  Loading
    and re-saving a file reproduces it byte for byte, which the
    property suite checks as the format round-trip.
    """
    if mtu <= 0:
        raise ConfigurationError(f"mtu must be positive, got {mtu!r}")
    counts: Dict[int, int] = {}
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                text = line.strip()
                if not text:
                    continue
                try:
                    ts = int(text)
                except ValueError:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected an integer millisecond "
                        f"timestamp, got {text!r}") from None
                if ts < 0:
                    raise ConfigurationError(
                        f"{path}:{lineno}: timestamps must be non-negative, "
                        f"got {ts}")
                counts[ts] = counts.get(ts, 0) + 1
    except OSError as exc:
        raise ConfigurationError(
            f"{path}: cannot read trace file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not a text trace file (byte {exc.start}: "
            f"{exc.reason})") from None
    if not counts:
        raise ConfigurationError(
            f"{path}: no delivery opportunities (empty trace)")
    period_ms = max(counts) + 1
    # One segment per distinct timestamp, a zero-rate one for each gap
    # between them, consecutive equal rates merged: the work follows
    # the file's lines, not the milliseconds its timestamps span.
    times: List[float] = []
    rates: List[float] = []

    def segment(b: int, rate: float) -> None:
        if not rates or rate != rates[-1]:
            times.append(b * BIN_S)
            rates.append(rate)

    uncovered = 0
    for ts in sorted(counts):
        if ts > uncovered:
            segment(uncovered, 0.0)
        segment(ts, counts[ts] * mtu * 1000.0)
        uncovered = ts + 1
    return BandwidthTrace(times, rates, period=period_ms * BIN_S,
                          name=name or path)


# ----------------------------------------------------------------------
# TraceSpec: the hashable scenario-side description
# ----------------------------------------------------------------------

#: Generator names accepted by :meth:`TraceSpec.build`.
TRACE_KINDS = ("constant", "steps", "random-walk", "cellular", "outage",
               "file")

#: Kinds whose build consumes seeded randomness.
STOCHASTIC_KINDS = ("random-walk", "cellular")


@dataclass(frozen=True)
class TraceSpec:
    """A frozen, hashable recipe for a :class:`BandwidthTrace`.

    Arena scenarios carry one of these instead of a built trace so the
    scenario table stays a table of plain values; the cohort builder
    calls :meth:`build` with the cell's seeded stream, making the
    resulting trace a pure function of (spec, seed).
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: object) -> "TraceSpec":
        if kind not in TRACE_KINDS:
            raise ConfigurationError(
                f"unknown trace kind {kind!r}; known: {list(TRACE_KINDS)}")
        return cls(kind, tuple(sorted(params.items())))

    def build(self, rng: Optional[random.Random] = None) -> BandwidthTrace:
        """Instantiate the trace; stochastic kinds require *rng*."""
        params = dict(self.params)
        if self.kind in STOCHASTIC_KINDS:
            if rng is None:
                raise ConfigurationError(
                    f"trace kind {self.kind!r} is stochastic and needs a "
                    "seeded random.Random")
            params["rng"] = rng
        if self.kind == "constant":
            return constant_trace(**params)
        if self.kind == "steps":
            return stepped_trace(**params)
        if self.kind == "random-walk":
            return random_walk_trace(**params)
        if self.kind == "cellular":
            return cellular_trace(**params)
        if self.kind == "outage":
            return outage_trace(**params)
        if self.kind == "file":
            return load_mahimahi(**params)
        raise ConfigurationError(
            f"unknown trace kind {self.kind!r}; known: {list(TRACE_KINDS)}")

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"
