#!/usr/bin/env python3
"""Regenerate the paper's Figures 6, 7 and 9 as ASCII trace graphs.

Runs the two canonical solo transfers — Reno alone and Vegas alone on
the Figure-5 network — and Vegas against tcplib background traffic,
and renders the windows panel, the sending-rate panel, and (for
Vegas) the Figure-8 CAM panel as text.  Reno's graph shows the
sawtooth and loss marks; Vegas' shows a window that finds the
bandwidth and stays there without losses, and under background
traffic a window that follows the bandwidth left to it.  The figures'
headline numbers, cached and in any seed, are ``python -m repro
run-all --experiments figure6,figure7,figure9``.

Run:  python examples/trace_comparison.py
"""

from repro.experiments.traces import figure6, figure7, figure9
from repro.trace.ascii_plot import (
    render_cam_panel,
    render_rate_panel,
    render_windows_panel,
)


def show(graph, result, caption):
    print("=" * 80)
    print(caption)
    print(f"throughput {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted, "
          f"{result.coarse_timeouts} coarse timeouts, "
          f"{len(graph.common.loss_lines)} segments presumed lost")
    print("=" * 80)
    print(render_windows_panel(graph))
    print("   (#: congestion window, .: bytes in transit, "
          "O: coarse timeout, |: loss)")
    print()
    print(render_rate_panel(graph))
    if graph.cam is not None:
        print()
        print(render_cam_panel(graph))
        print(f"   (alpha={graph.cam.alpha:.0f}, beta={graph.cam.beta:.0f} "
              "buffers; once-per-RTT decisions)")
    print()


def main():
    reno_graph, reno_result = figure6()
    show(reno_graph, reno_result,
         "Figure 6: TCP Reno with no other traffic (paper: 105 KB/s)")
    vegas_graph, vegas_result = figure7()
    show(vegas_graph, vegas_result,
         "Figure 7: TCP Vegas with no other traffic (paper: 169 KB/s)")
    background_graph, background_result = figure9()
    show(background_graph, background_result,
         "Figure 9: TCP Vegas with tcplib background traffic")


if __name__ == "__main__":
    main()
