"""Arena scenario templates.

A **scenario** is a named bottleneck configuration every matchup runs
over: bandwidth, propagation delay, router buffering, per-flow
transfer size, and a simulation horizon.  The set deliberately spans
the regimes where the paper's §3.2 schemes differentiate — the
Figure-5 classic (half-to-one BDP of buffering), a starved queue where
loss-based probing thrashes, a deep queue where delay-based schemes
shine, a long-fat path, and a short-haul metro path.

Scenarios reuse the canonical :mod:`repro.experiments.defaults`
numbers where they overlap (``classic`` *is* the Figure-5 bottleneck)
so the arena and the paper experiments stay mutually calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments import defaults as DFLT
from repro.net.traces import TraceSpec
from repro.units import kb, kbps, ms


@dataclass(frozen=True)
class Scenario:
    """One named bottleneck configuration for arena matchups."""

    name: str
    description: str
    bandwidth: float        # bottleneck bandwidth, bytes/second
    delay: float            # bottleneck one-way propagation, seconds
    buffers: int            # bottleneck queue capacity, packets
    access_delay: float     # per-flow access-link propagation, seconds
    transfer_bytes: int     # per-flow bulk transfer size
    horizon: float          # simulated seconds before the run is cut
    #: Optional time-varying bandwidth recipe; when set, the bottleneck
    #: drains along the built trace and ``bandwidth`` is only the
    #: nominal (cycle-mean) figure shown in tables.
    trace: Optional[TraceSpec] = None
    #: Stochastic per-packet loss on the bottleneck, independent of
    #: queue drops (seeded per cell; see VariableRateChannel).
    loss: float = 0.0

    @property
    def transfer_kb(self) -> int:
        return self.transfer_bytes // 1024

    @property
    def time_varying(self) -> bool:
        """True when the bottleneck is trace-driven or lossy."""
        return self.trace is not None or self.loss > 0.0


SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("classic",
             "the paper's Figure-5 bottleneck: 200 KB/s, 50 ms, 10 buffers",
             bandwidth=DFLT.BOTTLENECK_BANDWIDTH,
             delay=DFLT.BOTTLENECK_DELAY,
             buffers=DFLT.DEFAULT_BUFFERS,
             access_delay=ms(10), transfer_bytes=kb(300), horizon=180.0),
    Scenario("shallow",
             "starved queue: Figure-5 link with only 4 buffers",
             bandwidth=DFLT.BOTTLENECK_BANDWIDTH,
             delay=DFLT.BOTTLENECK_DELAY,
             buffers=4,
             access_delay=ms(10), transfer_bytes=kb(300), horizon=180.0),
    Scenario("deep",
             "over-buffered queue: Figure-5 link with 40 buffers (~2 BDP)",
             bandwidth=DFLT.BOTTLENECK_BANDWIDTH,
             delay=DFLT.BOTTLENECK_DELAY,
             buffers=40,
             access_delay=ms(10), transfer_bytes=kb(300), horizon=180.0),
    Scenario("lfn",
             "long fat network: 600 KB/s, 100 ms one-way, 25 buffers",
             bandwidth=kbps(600), delay=ms(100), buffers=25,
             access_delay=ms(10), transfer_bytes=kb(600), horizon=180.0),
    Scenario("metro",
             "short-haul fast path: 1 MB/s, 5 ms one-way, 10 buffers",
             bandwidth=kbps(1000), delay=ms(5), buffers=10,
             access_delay=ms(1), transfer_bytes=kb(600), horizon=120.0),
    # ------------------------------------------------------------------
    # Time-varying bottlenecks (trace-driven links; see repro.net.traces)
    # ------------------------------------------------------------------
    Scenario("steps",
             "square-wave capacity: 300<->100 KB/s every 8 s, 50 ms, "
             "20 buffers",
             bandwidth=kbps(200), delay=DFLT.BOTTLENECK_DELAY, buffers=20,
             access_delay=ms(10), transfer_bytes=kb(300), horizon=120.0,
             trace=TraceSpec.make(
                 "steps", steps=((8.0, kbps(300)), (8.0, kbps(100))))),
    Scenario("lte",
             "cellular sawtooth: 1 MB/s peak fading to 100 KB/s with "
             "deep fades, 30 ms, 50 buffers",
             bandwidth=kbps(550), delay=ms(30), buffers=50,
             access_delay=ms(10), transfer_bytes=kb(600), horizon=120.0,
             trace=TraceSpec.make(
                 "cellular", peak=kbps(1000), trough=kbps(100))),
    Scenario("wifi",
             "random-walk capacity around 500 KB/s plus 0.5% stochastic "
             "loss, 10 ms, 25 buffers",
             bandwidth=kbps(500), delay=ms(10), buffers=25,
             access_delay=ms(5), transfer_bytes=kb(600), horizon=120.0,
             trace=TraceSpec.make(
                 "random-walk", mean=kbps(500), step=kbps(60)),
             loss=0.005),
    Scenario("outage",
             "250 KB/s link that goes dark 2 s out of every 15 s, "
             "50 ms, 20 buffers",
             bandwidth=kbps(250), delay=DFLT.BOTTLENECK_DELAY, buffers=20,
             access_delay=ms(10), transfer_bytes=kb(300), horizon=120.0,
             trace=TraceSpec.make(
                 "outage", rate=kbps(250), period=15.0, down=2.0)),
    # Tiny grid point for tests and the CI registry-completeness suite;
    # not part of any default selection.
    Scenario("smoke",
             "test-sized classic bottleneck: 64 KB transfers",
             bandwidth=DFLT.BOTTLENECK_BANDWIDTH,
             delay=DFLT.BOTTLENECK_DELAY,
             buffers=DFLT.DEFAULT_BUFFERS,
             access_delay=ms(10), transfer_bytes=kb(64), horizon=60.0),
)}

#: Default full-matrix selection (every scenario except ``smoke``).
DEFAULT_SCENARIOS: Tuple[str, ...] = DFLT.ARENA_SCENARIOS

#: The trace-driven subset of the matrix.
TIME_VARYING_SCENARIOS: Tuple[str, ...] = ("steps", "lte", "wifi", "outage")


def available_scenarios() -> List[str]:
    """Sorted list of scenario names."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown arena scenario {name!r}; "
            f"available: {available_scenarios()}") from None


def custom_scenario(bandwidth_kbps: float, delay_ms: float, buffers: int,
                    transfer_kb: int, horizon: float,
                    name: str = "custom") -> Scenario:
    """Build an anonymous :class:`Scenario` from raw point parameters.

    The ``crossover`` cells build their bottlenecks this way: bandwidth
    / latency / queue / transfer size named directly instead of picked
    from :data:`SCENARIOS`.  Validation mirrors what the named
    scenarios guarantee by construction.  The caller sizes the
    *horizon* for its cohort.
    """
    if not bandwidth_kbps > 0:
        raise ConfigurationError(
            f"scenario bandwidth must be positive, got {bandwidth_kbps!r}")
    if not delay_ms >= 0:
        raise ConfigurationError(
            f"scenario delay must be >= 0 ms, got {delay_ms!r}")
    if buffers < 1:
        raise ConfigurationError(
            f"scenario buffers must be >= 1, got {buffers!r}")
    if transfer_kb < 1:
        raise ConfigurationError(
            f"scenario transfer size must be >= 1 KB, got {transfer_kb!r}")
    return Scenario(
        name=name,
        description=(f"{bandwidth_kbps:g} KB/s, "
                     f"{delay_ms:g} ms, {buffers} buffers, "
                     f"{transfer_kb} KB transfers"),
        bandwidth=kbps(bandwidth_kbps), delay=ms(delay_ms),
        buffers=int(buffers), access_delay=ms(5),
        transfer_bytes=kb(int(transfer_kb)), horizon=float(horizon))
