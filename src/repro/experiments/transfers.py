"""The measured flow: one starter and one per-flow record.

Every table in the paper reports the same per-transfer metrics:
throughput (KB/s), kilobytes retransmitted, and (Tables 2/4/5) the
number of coarse-grained timeouts.  :func:`start_measured_transfer`
starts every measured flow of every topology — Figure 5, the emulated
Internet path and the arena's dumbbell — and :class:`TransferResult`
is the one record each flow's metrics are read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.core.registry import cc_factory
from repro.errors import ConfigurationError
from repro.experiments import defaults as DFLT
from repro.experiments.figure5 import build_figure5
from repro.tcp.protocol import TCPProtocol
from repro.trace.tracer import ConnectionTracer

CCSpec = Union[str, Callable]


def resolve_cc(cc: CCSpec) -> Callable:
    """Accept either a registry name or a factory; return a factory."""
    if isinstance(cc, str):
        return cc_factory(cc)
    return cc


@dataclass
class TransferResult:
    """The paper's per-transfer metrics, one record per measured flow."""

    cc_name: str
    size_bytes: int
    done: bool
    throughput_kbps: float
    retransmitted_kb: float
    coarse_timeouts: int
    fast_retransmits: int
    fine_retransmits: int
    duration: Optional[float]
    rtt_mean_ms: float
    start: float                # when the connection opened

    @classmethod
    def from_transfer(cls, transfer: BulkTransfer,
                      cc: CCSpec = "") -> "TransferResult":
        """The flow's record; a registry name *cc* names it, else its
        controller's own ``name`` does."""
        if transfer.conn is None:
            raise ConfigurationError(
                "the measured transfer never opened before the run ended")
        stats = transfer.conn.stats
        return cls(
            cc_name=(cc if cc and isinstance(cc, str)
                     else type(transfer.conn.cc).name),
            size_bytes=transfer.total_bytes,
            done=transfer.done,
            throughput_kbps=stats.throughput_kbps(),
            retransmitted_kb=stats.retransmitted_kb(),
            coarse_timeouts=stats.coarse_timeouts,
            fast_retransmits=stats.fast_retransmits,
            fine_retransmits=stats.fine_retransmits,
            duration=stats.transfer_seconds,
            rtt_mean_ms=(stats.rtt_mean or 0.0) * 1000.0,
            start=stats.open_time,
        )

    def metrics(self, prefix: str = "") -> Dict[str, float]:
        """The flat metrics every harness cell reports for a transfer."""
        return {
            f"{prefix}throughput_kbps": self.throughput_kbps,
            f"{prefix}retransmit_kb": self.retransmitted_kb,
            f"{prefix}coarse_timeouts": self.coarse_timeouts,
        }


def start_measured_transfer(src: TCPProtocol, dst: TCPProtocol,
                            cc: CCSpec, size: int,
                            start_at: float = 0.0,
                            **conn_options) -> BulkTransfer:
    """Install a sink on *dst* and a *size*-byte transfer from *src*
    that opens ``start_at`` seconds from now.

    *conn_options* (``sndbuf``, ``rcvbuf``, ``tracer``, ...) go to the
    sender's connection; its controller is built as it opens.
    """
    BulkSink(dst, DFLT.TRANSFER_PORT)
    return BulkTransfer(src, dst.host.name, DFLT.TRANSFER_PORT, size,
                        cc=resolve_cc(cc), start_at=start_at, **conn_options)


def run_solo_transfer(cc: CCSpec, size: int = DFLT.LARGE_TRANSFER,
                      buffers: int = DFLT.DEFAULT_BUFFERS,
                      seed: int = 0,
                      tracer: Optional[ConnectionTracer] = None,
                      sndbuf: int = DFLT.SOCKBUF,
                      horizon: float = DFLT.TRANSFER_HORIZON,
                      ) -> TransferResult:
    """One transfer, no competing traffic (the Figure 6/7 scenario)."""
    net = build_figure5(buffers=buffers, seed=seed)
    transfer = start_measured_transfer(*net.pair(1), cc, size,
                                       sndbuf=sndbuf, tracer=tracer)
    net.sim.run(until=horizon)
    return TransferResult.from_transfer(transfer, cc)

