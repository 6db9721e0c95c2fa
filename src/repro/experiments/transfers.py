"""Measured-transfer driver and result records.

Every table in the paper reports the same per-transfer metrics:
throughput (KB/s), kilobytes retransmitted, and (Tables 2/4/5) the
number of coarse-grained timeouts.  :class:`TransferResult` captures
those from a finished :class:`~repro.apps.bulk.BulkTransfer`, and
:func:`start_measured_transfer` wires a transfer into a Figure-5
network with a sink on the destination host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.core.registry import cc_factory
from repro.experiments import defaults as DFLT
from repro.experiments.figure5 import Figure5Network
from repro.trace.tracer import ConnectionTracer

CCSpec = Union[str, Callable]


def resolve_cc(cc: CCSpec) -> Callable:
    """Accept either a registry name or a factory; return a factory."""
    if isinstance(cc, str):
        return cc_factory(cc)
    return cc


@dataclass
class TransferResult:
    """The paper's per-transfer metrics."""

    cc_name: str
    size_bytes: int
    done: bool
    throughput_kbps: float
    retransmitted_kb: float
    coarse_timeouts: int
    fast_retransmits: int
    fine_retransmits: int
    duration: Optional[float]

    @classmethod
    def from_transfer(cls, transfer: BulkTransfer,
                      cc_name: str = "") -> "TransferResult":
        stats = transfer.conn.stats
        return cls(
            cc_name=cc_name or type(transfer.conn.cc).name,
            size_bytes=transfer.total_bytes,
            done=transfer.done,
            throughput_kbps=stats.throughput_kbps(),
            retransmitted_kb=stats.retransmitted_kb(),
            coarse_timeouts=stats.coarse_timeouts,
            fast_retransmits=stats.fast_retransmits,
            fine_retransmits=stats.fine_retransmits,
            duration=stats.transfer_seconds,
        )

    def metrics(self) -> Dict[str, float]:
        """The flat metrics every harness cell reports for a transfer."""
        return {
            "throughput_kbps": self.throughput_kbps,
            "retransmit_kb": self.retransmitted_kb,
            "coarse_timeouts": self.coarse_timeouts,
        }


def start_measured_transfer(net: Figure5Network, cc: CCSpec,
                            size: int,
                            src: str = "Host2a", dst: str = "Host2b",
                            port: int = DFLT.TRANSFER_PORT,
                            start_at: float = 0.0,
                            sndbuf: int = DFLT.SOCKBUF,
                            rcvbuf: int = DFLT.SOCKBUF,
                            tracer: Optional[ConnectionTracer] = None):
    """Install a sink on *dst* and schedule a bulk transfer from *src*.

    Returns a one-element list that will hold the
    :class:`BulkTransfer` once it starts (transfers started at
    ``start_at > 0`` do not exist until then).
    """
    factory = resolve_cc(cc)
    BulkSink(net.protocol(dst), port)
    holder = [None]

    def _start() -> None:
        holder[0] = BulkTransfer(net.protocol(src), dst, port, size,
                                 cc=factory(), sndbuf=sndbuf, rcvbuf=rcvbuf,
                                 tracer=tracer)

    if start_at <= 0:
        _start()
    else:
        net.sim.schedule_anon(start_at, _start)
    return holder


def run_solo_transfer(cc: CCSpec, size: int = DFLT.LARGE_TRANSFER,
                      buffers: int = DFLT.DEFAULT_BUFFERS,
                      seed: int = 0,
                      tracer: Optional[ConnectionTracer] = None,
                      sndbuf: int = DFLT.SOCKBUF,
                      horizon: float = DFLT.TRANSFER_HORIZON,
                      ) -> TransferResult:
    """One transfer, no competing traffic (the Figure 6/7 scenario)."""
    net = build_net(buffers=buffers, seed=seed)
    holder = start_measured_transfer(net, cc, size, src="Host1a",
                                     dst="Host1b", sndbuf=sndbuf,
                                     tracer=tracer)
    net.sim.run(until=horizon)
    name = cc if isinstance(cc, str) else ""
    return TransferResult.from_transfer(holder[0], cc_name=name)


def build_net(**kwargs) -> Figure5Network:
    """Convenience re-export to avoid circular imports in callers."""
    from repro.experiments.figure5 import build_figure5

    return build_figure5(**kwargs)
