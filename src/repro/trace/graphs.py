"""Assembled trace graphs — the paper's multi-panel connection figures.

A :class:`TraceGraph` bundles every panel of a Figure-1/6/7/9-style
plot for one connection: the common elements (Figure 2), the windows
panel (Figure 3), the sending-rate panel, and — for Vegas — the CAM
panel (Figure 8).  The traced registry cells count their elements,
which the paper-claim tests assert on; :mod:`repro.trace.ascii_plot`
renders them as text for the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.trace import series as S
from repro.trace.records import Kind
from repro.trace.tracer import ConnectionTracer


@dataclass
class CommonElements:
    """Figure 2: marks shared by every TCP trace graph."""

    ack_marks: List[float] = field(default_factory=list)
    send_marks: List[float] = field(default_factory=list)
    kilobyte_marks: List[Tuple[float, float]] = field(default_factory=list)
    timer_diamonds: List[float] = field(default_factory=list)
    timeout_circles: List[float] = field(default_factory=list)
    loss_lines: List[float] = field(default_factory=list)


@dataclass
class WindowsPanel:
    """Figure 3: the windows graph."""

    threshold_window: List[Tuple[float, float]] = field(default_factory=list)
    send_window: List[Tuple[float, float]] = field(default_factory=list)
    congestion_window: List[Tuple[float, float]] = field(default_factory=list)
    bytes_in_transit: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class CamPanel:
    """Figure 8: Vegas' congestion-avoidance panel."""

    decision_times: List[float] = field(default_factory=list)
    expected: List[Tuple[float, float]] = field(default_factory=list)
    actual: List[Tuple[float, float]] = field(default_factory=list)
    diff_buffers: List[Tuple[float, float]] = field(default_factory=list)
    alpha: float = 0.0
    beta: float = 0.0


@dataclass
class TraceGraph:
    """All panels for one connection trace."""

    name: str
    common: CommonElements
    windows: WindowsPanel
    sending_rate: List[Tuple[float, float]]
    cam: Optional[CamPanel] = None

    @property
    def duration(self) -> float:
        if not self.common.send_marks:
            return 0.0
        return self.common.send_marks[-1] - self.common.send_marks[0]

    def losses(self) -> int:
        """Number of presumed-lost segments (retransmission count)."""
        return len(self.common.loss_lines)


def build_trace_graph(tracer: ConnectionTracer, name: str = "",
                      alpha_buffers: float = 0.0,
                      beta_buffers: float = 0.0) -> TraceGraph:
    """Derive every panel of the paper's trace figure from *tracer*.

    ``alpha_buffers``/``beta_buffers`` annotate the CAM panel's dashed
    threshold lines when the traced connection ran Vegas.
    """
    common = CommonElements(
        ack_marks=S.ack_marks(tracer),
        send_marks=S.send_marks(tracer),
        kilobyte_marks=S.kilobyte_marks(tracer),
        timer_diamonds=S.timer_diamonds(tracer),
        timeout_circles=S.timeout_circles(tracer),
        loss_lines=S.loss_lines(tracer),
    )
    windows = WindowsPanel(
        threshold_window=S.step_series(tracer, Kind.SSTHRESH),
        send_window=S.step_series(tracer, Kind.SND_WND),
        congestion_window=S.step_series(tracer, Kind.CWND),
        bytes_in_transit=S.step_series(tracer, Kind.FLIGHT),
    )
    expected, actual = S.cam_series(tracer)
    cam: Optional[CamPanel] = None
    if expected:
        cam = CamPanel(
            decision_times=[t for t, _ in expected],
            expected=expected,
            actual=actual,
            diff_buffers=S.cam_diff_series(tracer),
            alpha=alpha_buffers,
            beta=beta_buffers,
        )
    return TraceGraph(
        name=name or tracer.name,
        common=common,
        windows=windows,
        sending_rate=S.sending_rate_series(tracer),
        cam=cam,
    )
