#!/usr/bin/env python3
"""Fairness of many competing connections (paper §4.3).

Sixteen simultaneous transfers share a 200 KB/s bottleneck with only
20 router buffers — the paper's stress configuration.  Prints Jain's
fairness index and per-connection throughputs for Reno and Vegas,
with equal and 2:1 propagation delays (throughputs in flow order: with
2:1 delays the last eight flows have the longer path).

Run:  python examples/fairness_demo.py
"""

from dataclasses import replace

from repro.arena.cells import run_cohort
from repro.arena.scenarios import get_scenario
from repro.metrics.fairness import jain_fairness_index
from repro.units import kb


def main():
    spec = replace(get_scenario("classic"), buffers=20,
                   transfer_bytes=kb(512), horizon=600.0)
    near = spec.access_delay
    for mixed in (False, True):
        label = "2:1 propagation delays" if mixed else "equal delays"
        delays = [near * (2 if mixed and i >= 8 else 1) for i in range(16)]
        print(f"=== 16 connections, 512 KB each, 20 buffers, {label} ===")
        for cc in ("reno", "vegas"):
            flows = run_cohort([cc] * 16, spec, seed=0, access_delays=delays)
            tputs = [flow.throughput_kbps for flow in flows]
            print(f"{cc:>6}: Jain index {jain_fairness_index(tputs):.3f}, "
                  f"{sum(flow.coarse_timeouts for flow in flows)} timeouts, "
                  f"{sum(flow.retransmitted_kb for flow in flows):.0f} KB "
                  "retransmitted")
            print("        per-connection KB/s: "
                  + " ".join(f"{t:5.1f}" for t in tputs))
        print()
    print("Paper: 'Vegas was more fair than Reno in all experiments' with")
    print("16 connections, and 'no stability problems ... even though")
    print("there were only 20 buffers at the router'.")


if __name__ == "__main__":
    main()
