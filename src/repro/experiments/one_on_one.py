"""Table 1: one-on-one transfers.

"We start a 1 MB transfer, and then after a variable delay, start a
300 KB transfer. ... The values in the table are averages from 12
runs, using 15 and 20 buffers in the routers, and with the delay
before starting the smaller transfer ranging between 0 and 2.5
seconds."  Column ``X/Y`` means a 300 KB transfer over X contained in
a 1 MB transfer over Y.

Also covers the §4.3 variant "one-on-one tests with traffic in the
background".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import defaults as DFLT
from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import (
    CCSpec,
    TransferResult,
    resolve_cc,
    start_measured_transfer,
)


@dataclass
class OneOnOneResult:
    """One run: the pair of transfer results."""

    small: TransferResult
    large: TransferResult

    @property
    def combo(self) -> str:
        return f"{self.small.cc_name}/{self.large.cc_name}"


def run_one_on_one(small_cc: CCSpec, large_cc: CCSpec,
                   delay: float, buffers: int, seed: int = 0,
                   with_background: bool = False,
                   arrival_mean: float = DFLT.TRAFFIC_ARRIVAL_MEAN,
                   horizon: float = DFLT.TRANSFER_HORIZON) -> OneOnOneResult:
    """One Table-1 run: 1 MB on Host1, 300 KB on Host2 after *delay*.

    With ``with_background=True`` a Reno TRAFFIC load runs on Host3
    (the §4.3 variant) until both measured transfers are done.
    """
    net = build_figure5(buffers=buffers, seed=seed)
    large = start_measured_transfer(*net.pair(1), large_cc,
                                    DFLT.LARGE_TRANSFER)
    small = start_measured_transfer(*net.pair(2), small_cc,
                                    DFLT.SMALL_TRANSFER, start_at=delay)
    if with_background:
        generator = net.start_traffic("Host3a", "Host3b", resolve_cc("reno"),
                                      arrival_mean=arrival_mean)

        def stop_when_done() -> None:
            if small.done and large.done:
                generator.stop()
            else:
                net.sim.schedule_anon(1.0, stop_when_done)

        net.sim.schedule_anon(1.0, stop_when_done)
    net.sim.run(until=horizon)
    return OneOnOneResult(
        small=TransferResult.from_transfer(small, small_cc),
        large=TransferResult.from_transfer(large, large_cc))
