"""Figures 1, 6, 7 and 9: traced single-connection runs.

Each function runs the corresponding scenario with tracing enabled and
returns ``(TraceGraph, TransferResult)`` so callers can both inspect
the panels (Figures 2/3/8 elements) and check the headline numbers the
captions quote (Figure 6: Reno 105 KB/s alone; Figure 7: Vegas
169 KB/s alone).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.vegas import VegasCC
from repro.experiments import defaults as DFLT
from repro.experiments.background import run_with_background
from repro.experiments.transfers import (
    CCSpec,
    TransferResult,
    resolve_cc,
    run_solo_transfer,
)
from repro.trace.graphs import TraceGraph, build_trace_graph
from repro.trace.tracer import ConnectionTracer


def traced_solo_run(cc: CCSpec, name: str,
                    buffers: int = DFLT.DEFAULT_BUFFERS,
                    size: int = DFLT.LARGE_TRANSFER,
                    seed: int = 0,
                    horizon: float = DFLT.TRANSFER_HORIZON,
                    ) -> Tuple[TraceGraph, TransferResult]:
    """One traced transfer with no other traffic (Figures 6 and 7)."""
    tracer = ConnectionTracer(name)
    result = run_solo_transfer(cc, size=size, buffers=buffers, seed=seed,
                               tracer=tracer, horizon=horizon)
    alpha, beta = _thresholds(resolve_cc(cc)())
    graph = build_trace_graph(tracer, name=name, alpha_buffers=alpha,
                              beta_buffers=beta)
    return graph, result


def figure6(seed: int = 0, buffers: int = DFLT.DEFAULT_BUFFERS,
            ) -> Tuple[TraceGraph, TransferResult]:
    """Figure 6: TCP Reno with no other traffic.

    The paper's caption: throughput 105 KB/s; the trace shows Reno
    periodically overrunning the 10-buffer queue, losing segments, and
    occasionally stalling in a coarse timeout.
    """
    return traced_solo_run("reno", "figure6-reno", buffers=buffers, seed=seed)


def figure7(seed: int = 0, buffers: int = DFLT.DEFAULT_BUFFERS,
            ) -> Tuple[TraceGraph, TransferResult]:
    """Figure 7: TCP Vegas with no other traffic.

    The paper's caption: throughput 169 KB/s; no losses, the window
    stabilises, and the CAM panel shows Actual tracking Expected with
    the α/β band keeping a few extra buffers occupied.
    """
    return traced_solo_run("vegas", "figure7-vegas", buffers=buffers,
                           seed=seed)


def figure1(seed: int = 0, buffers: int = DFLT.DEFAULT_BUFFERS,
            ) -> Tuple[TraceGraph, TransferResult]:
    """Figure 1: Reno trace with tcplib background (the tools demo)."""
    tracer = ConnectionTracer("figure1-reno")
    run = run_with_background("reno", buffers=buffers, seed=seed,
                              tracer=tracer)
    graph = build_trace_graph(tracer, name="figure1-reno")
    return graph, run.transfer


def figure9(seed: int = 0, buffers: int = DFLT.DEFAULT_BUFFERS,
            ) -> Tuple[TraceGraph, TransferResult]:
    """Figure 9: Vegas with tcplib-generated background traffic."""
    tracer = ConnectionTracer("figure9-vegas")
    run = run_with_background("vegas", buffers=buffers, seed=seed,
                              tracer=tracer)
    graph = build_trace_graph(tracer, name="figure9-vegas",
                              alpha_buffers=2.0, beta_buffers=4.0)
    return graph, run.transfer


def _thresholds(cc) -> Tuple[float, float]:
    if isinstance(cc, VegasCC):
        return cc.alpha, cc.beta
    return 0.0, 0.0
