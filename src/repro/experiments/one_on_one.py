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
from typing import Dict

from repro.experiments import defaults as DFLT
from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import (
    CCSpec,
    TransferResult,
    start_measured_transfer,
)


@dataclass
class OneOnOneResult:
    """One run: the pair of transfer results."""

    small: TransferResult
    large: TransferResult
    small_cc: str
    large_cc: str

    @property
    def combo(self) -> str:
        return f"{self.small_cc}/{self.large_cc}"


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
    large = start_measured_transfer(net, large_cc, DFLT.LARGE_TRANSFER,
                                    src="Host1a", dst="Host1b",
                                    start_at=0.0)
    small = start_measured_transfer(net, small_cc, DFLT.SMALL_TRANSFER,
                                    src="Host2a", dst="Host2b",
                                    start_at=delay)
    generator = None
    if with_background:
        from repro.core.reno import RenoCC
        from repro.trafficgen import TrafficGenerator, TrafficServer

        import random
        rng = random.Random(net.rng.stream("traffic").random())
        TrafficServer(net.protocol("Host3b"), rng, RenoCC)
        generator = TrafficGenerator(net.protocol("Host3a"), "Host3b", rng,
                                     RenoCC, arrival_mean=arrival_mean)
        generator.start(0.0)

        def stop_when_done() -> None:
            if all(t[0] is not None and t[0].done for t in (small, large)):
                generator.stop()
            else:
                net.sim.schedule_anon(1.0, stop_when_done)

        net.sim.schedule_anon(1.0, stop_when_done)
    net.sim.run(until=horizon)
    if generator is not None:
        generator.stop()
    small_name = small_cc if isinstance(small_cc, str) else "custom"
    large_name = large_cc if isinstance(large_cc, str) else "custom"
    return OneOnOneResult(
        small=TransferResult.from_transfer(small[0], small_name),
        large=TransferResult.from_transfer(large[0], large_name),
        small_cc=small_name, large_cc=large_name,
    )


#: The paper's Table 1 numbers, for side-by-side printing.
PAPER_TABLE1: Dict[str, Dict[str, float]] = {
    "Small throughput (KB/s)": {
        "reno/reno": 60, "reno/vegas": 61, "vegas/reno": 66,
        "vegas/vegas": 74},
    "Large throughput (KB/s)": {
        "reno/reno": 109, "reno/vegas": 123, "vegas/reno": 119,
        "vegas/vegas": 131},
    "Small retransmits (KB)": {
        "reno/reno": 30, "reno/vegas": 43, "vegas/reno": 1.5,
        "vegas/vegas": 0.3},
    "Large retransmits (KB)": {
        "reno/reno": 22, "reno/vegas": 1.8, "vegas/reno": 18,
        "vegas/vegas": 0.1},
}
