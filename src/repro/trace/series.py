"""Extraction of the paper's graph data series from trace records.

Figure 2 of the paper keys the common trace-graph elements: ACK-arrival
hash marks, segment-send hash marks, kilobyte progress labels, the
coarse timer's periodic "diamonds", timeout "circles", and vertical
lines at the original send times of segments that were later
retransmitted.  Figure 3 keys the windows panel (threshold window,
send window, congestion window, bytes in transit) and Figure 8 the
Vegas CAM panel (Expected/Actual rates against the α/β thresholds).

Each extractor below turns a :class:`ConnectionTracer`'s trace into
one of those series as ``(time, value)`` tuples.  Extractors read the
tracer's columnar storage via :meth:`ConnectionTracer.rows` /
:meth:`ConnectionTracer.points` rather than the materialized
``records`` list — a trace is extracted from many times per analysis,
and building ``Record`` tuples just to unpack them again dominated
the analysis phase.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.trace.records import Kind
from repro.trace.tracer import ConnectionTracer

Series = List[Tuple[float, float]]


def step_series(tracer: ConnectionTracer, kind: Kind) -> Series:
    """(time, value-a) points for every record of *kind*, in order."""
    return tracer.points(kind)


def send_marks(tracer: ConnectionTracer) -> List[float]:
    """Times of every segment transmission (Figure 2, element 2)."""
    want = (int(Kind.SEND), int(Kind.RETX))
    return [t for t, k, _, _ in tracer.rows() if k in want]


def ack_marks(tracer: ConnectionTracer) -> List[float]:
    """Times of every new-ACK arrival (Figure 2, element 1)."""
    return [t for t, _ in tracer.points(Kind.ACK_RX)]


def timer_diamonds(tracer: ConnectionTracer) -> List[float]:
    """Coarse-timer check times (Figure 2, element 4)."""
    return [t for t, _ in tracer.points(Kind.TIMER_CHECK)]


def timeout_circles(tracer: ConnectionTracer) -> List[float]:
    """Coarse-timeout times (Figure 2, element 5)."""
    return [t for t, _ in tracer.points(Kind.COARSE_TIMEOUT)]


def loss_lines(tracer: ConnectionTracer) -> List[float]:
    """Original-send times of segments later retransmitted (element 6).

    "Solid vertical lines ... indicate when a segment that is
    eventually retransmitted was originally sent, presumably because
    it was lost."  We find, for every RETX record, the most recent
    earlier SEND/RETX record covering the same starting sequence.
    """
    send_kind = int(Kind.SEND)
    retx_kind = int(Kind.RETX)
    last_sent_at = {}
    lines: List[float] = []
    for t, k, a, _ in tracer.rows():
        if k == send_kind:
            last_sent_at[a] = t
        elif k == retx_kind:
            original = last_sent_at.get(a)
            if original is not None:
                lines.append(original)
            last_sent_at[a] = t
    return lines


def kilobyte_marks(tracer: ConnectionTracer, every_kb: int = 100) -> Series:
    """(time, kb) when each multiple of *every_kb* new kilobytes was sent
    (Figure 2, element 3)."""
    sent = 0
    next_mark = every_kb * 1024
    marks: Series = []
    for t, b in tracer.points(Kind.SEND, field="b"):
        sent += b
        while sent >= next_mark:
            marks.append((t, next_mark / 1024))
            next_mark += every_kb * 1024
    return marks


def sending_rate_series(tracer: ConnectionTracer,
                        window_segments: int = 12) -> Series:
    """Average sending rate "calculated from the last 12 segments"
    (Figure 1, bottom graph), in bytes/second."""
    want = (int(Kind.SEND), int(Kind.RETX))
    sends = [(t, b) for t, k, _, b in tracer.rows() if k in want and b > 0]
    series: Series = []
    for i in range(window_segments, len(sends)):
        t0 = sends[i - window_segments][0]
        t1 = sends[i][0]
        nbytes = sum(b for _, b in sends[i - window_segments + 1:i + 1])
        if t1 > t0:
            series.append((t1, nbytes / (t1 - t0)))
    return series


def cam_series(tracer: ConnectionTracer) -> Tuple[Series, Series]:
    """(expected, actual) rate series from Vegas CAM decisions
    (Figure 8, elements 2 and 3), in bytes/second."""
    cam_kind = int(Kind.CAM)
    expected: Series = []
    actual: Series = []
    for t, k, a, b in tracer.rows():
        if k == cam_kind:
            expected.append((t, a))
            actual.append((t, b))
    return expected, actual


def cam_diff_series(tracer: ConnectionTracer) -> Series:
    """Diff in router buffers at each CAM decision."""
    return [(t, a / 1000.0) for t, a in tracer.points(Kind.CAM_DECISION)]


def rtt_series(tracer: ConnectionTracer) -> Series:
    """(time, rtt seconds) for every fine-grained sample the sender took.

    The latency story in one series: Reno's samples climb to the full
    queueing delay before each loss; Vegas' stay near BaseRTT plus its
    α..β segments.
    """
    return [(t, a / 1e6) for t, a in tracer.points(Kind.RTT_SAMPLE)]


def value_at(series: Series, time: float) -> Optional[float]:
    """Value of a step series at *time* (last point at or before it)."""
    best = None
    for t, v in series:
        if t <= time:
            best = v
        else:
            break
    return best


def sawtooth_count(series: Series, drop_fraction: float = 0.3) -> int:
    """Count significant drops in a window series (Reno's sawtooth).

    A drop is counted whenever a point falls below ``(1 -
    drop_fraction)`` of the running maximum since the previous drop;
    the traced cells report it as ``cwnd_sawteeth``, Reno's periodic
    self-induced losses.
    """
    count = 0
    peak = 0.0
    for _, v in series:
        if v > peak:
            peak = v
        elif peak > 0 and v < peak * (1.0 - drop_fraction):
            count += 1
            peak = v
    return count


def steady_state_stats(series: Series, t_start: float,
                       t_end: Optional[float] = None) -> Tuple[float, float]:
    """(mean, max-min spread) of a series restricted to [t_start, t_end]."""
    points = [v for t, v in series
              if t >= t_start and (t_end is None or t <= t_end)]
    if not points:
        return 0.0, 0.0
    mean = sum(points) / len(points)
    return mean, max(points) - min(points)
