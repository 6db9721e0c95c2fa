"""Dynamics: how flows converge and share when demand changes.

Not a numbered artifact of the paper, but directly probes its §4.1/§6
claims — Vegas "is not an aggressive retransmission strategy that
steals bandwidth" and responds to "transient increases in the
available network bandwidth".  Two scenarios:

* **join**: flow A runs alone, flow B joins mid-stream.  We measure
  each flow's rate before/during/after and how equally the pair share
  while both are active.
* **leave**: both start together, A finishes early; we measure how
  quickly B absorbs the freed bandwidth (the "respond rapidly to
  transient increases" property that keeping α extra segments in the
  network buys).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import CCSpec, start_measured_transfer
from repro.metrics.sampler import RateSampler
from repro.units import mb


@dataclass
class JoinResult:
    """Per-phase rates for the join scenario (KB/s)."""

    cc_name: str
    solo_rate: float          # A alone, before B joins
    shared_rate_a: float      # A while sharing
    shared_rate_b: float      # B while sharing
    recovered_rate_b: float   # B after A finished

    @property
    def share_balance(self) -> float:
        """min/max of the two shared rates (1.0 = perfectly equal)."""
        hi = max(self.shared_rate_a, self.shared_rate_b)
        if hi == 0:
            return 1.0
        return min(self.shared_rate_a, self.shared_rate_b) / hi


def run_join_scenario(cc: CCSpec, join_at: float = 8.0,
                      buffers: int = 20, seed: int = 0,
                      horizon: float = 120.0) -> JoinResult:
    """Flow A (3 MB) runs alone; flow B (2 MB) joins at *join_at*."""
    net = build_figure5(buffers=buffers, seed=seed)
    flow_a = start_measured_transfer(*net.pair(1), cc, mb(3))
    flow_b = start_measured_transfer(*net.pair(2), cc, mb(2), start_at=join_at)
    sampler_a = RateSampler(net.sim,
                            lambda: flow_a.conn.stats.app_bytes_acked,
                            interval=0.25)
    sampler_b = RateSampler(
        net.sim,
        lambda: (flow_b.conn.stats.app_bytes_acked
                 if flow_b.conn is not None else 0),
        interval=0.25)
    sampler_a.start()
    sampler_b.start()
    net.sim.run(until=horizon)
    a_done = flow_a.finish_time or horizon
    b_done = flow_b.finish_time or horizon

    shared_end = min(a_done, b_done)
    name = cc if isinstance(cc, str) else "custom"
    return JoinResult(
        cc_name=name,
        solo_rate=sampler_a.mean_rate(2.0, join_at) / 1024.0,
        shared_rate_a=sampler_a.mean_rate(join_at + 2.0, shared_end) / 1024.0,
        shared_rate_b=sampler_b.mean_rate(join_at + 2.0, shared_end) / 1024.0,
        recovered_rate_b=(sampler_b.mean_rate(a_done + 1.0, b_done) / 1024.0
                          if b_done > a_done + 1.5 else 0.0),
    )


@dataclass
class LeaveResult:
    """How fast the survivor absorbs freed bandwidth (KB/s)."""

    cc_name: str
    shared_rate: float      # survivor's rate while sharing
    takeover_rate: float    # survivor's rate 0-3 s after the leaver ends
    settled_rate: float     # survivor's rate 3-8 s after


def run_leave_scenario(cc: CCSpec, buffers: int = 20, seed: int = 0,
                       horizon: float = 180.0) -> LeaveResult:
    """A (1 MB) and B (4 MB) start together; A finishes first."""
    net = build_figure5(buffers=buffers, seed=seed)
    leaver = start_measured_transfer(*net.pair(1), cc, mb(1))
    survivor = start_measured_transfer(*net.pair(2), cc, mb(4))
    sampler = RateSampler(net.sim,
                          lambda: survivor.conn.stats.app_bytes_acked,
                          interval=0.25)
    sampler.start()
    net.sim.run(until=horizon)
    t_leave = leaver.finish_time or horizon
    name = cc if isinstance(cc, str) else "custom"
    return LeaveResult(
        cc_name=name,
        shared_rate=sampler.mean_rate(3.0, t_leave) / 1024.0,
        takeover_rate=sampler.mean_rate(t_leave, t_leave + 3.0) / 1024.0,
        settled_rate=sampler.mean_rate(t_leave + 3.0, t_leave + 8.0) / 1024.0,
    )
