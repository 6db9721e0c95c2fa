"""The paper-artifact commands: one printer per table, figure and §4.3/§6 study.

Each prints the regenerated table or trace summary, with the paper's
numbers alongside where the paper gives them.  ``list`` and ``solo``
ride along: the roster of algorithms and one ad-hoc transfer.
"""

from __future__ import annotations


def print_list(args) -> int:
    from repro.core.registry import available

    print("Available congestion-control algorithms:")
    for name in available():
        print(f"  {name}")
    # Derived from the parser (repro.cli.build_parser stashes the verb
    # names) so this can never drift as commands are added.
    print("\nSubcommands: " + ", ".join(args._subcommands))
    return 0


def print_solo(args) -> int:
    from repro.experiments.transfers import run_solo_transfer
    from repro.units import kb

    result = run_solo_transfer(args.cc, size=kb(args.size_kb),
                               buffers=args.buffers, seed=args.seed)
    print(f"{args.cc}: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted, "
          f"{result.coarse_timeouts} coarse timeouts "
          f"({args.size_kb} KB over the Figure-5 bottleneck, "
          f"{args.buffers} buffers)")
    return 0


def print_figure6(args) -> int:
    from repro.experiments.traces import figure6
    from repro.trace.ascii_plot import render_rate_panel, render_windows_panel

    graph, result = figure6(seed=args.seed)
    print("Figure 6 — Reno, no other traffic (paper: 105 KB/s)")
    print(f"measured: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted, "
          f"{result.coarse_timeouts} timeouts, "
          f"{graph.losses()} segments lost\n")
    print(render_windows_panel(graph))
    print(render_rate_panel(graph))
    return 0


def print_figure7(args) -> int:
    from repro.experiments.traces import figure7
    from repro.trace.ascii_plot import render_cam_panel, render_windows_panel

    graph, result = figure7(seed=args.seed)
    print("Figure 7 — Vegas, no other traffic (paper: 169 KB/s)")
    print(f"measured: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted, "
          f"{result.coarse_timeouts} timeouts\n")
    print(render_windows_panel(graph))
    print(render_cam_panel(graph))
    return 0


def print_figure9(args) -> int:
    from repro.experiments.traces import figure9
    from repro.trace.ascii_plot import render_cam_panel, render_windows_panel

    graph, result = figure9(seed=args.seed)
    print("Figure 9 — Vegas with tcplib background traffic")
    print(f"measured: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted\n")
    print(render_windows_panel(graph))
    print(render_cam_panel(graph))
    return 0


def print_table1(args) -> int:
    from repro.experiments.one_on_one import PAPER_TABLE1, table1
    from repro.metrics.tables import format_table

    delays = (0.0, 1.0, 2.0) if args.quick else (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    table, _ = table1(buffers=(15, 20), delays=delays, seed=args.seed)
    print(format_table("Table 1: one-on-one transfers", table,
                       ratios_for={"Small throughput (KB/s)": "reno/reno",
                                   "Large throughput (KB/s)": "reno/reno"},
                       paper=PAPER_TABLE1))
    return 0


def print_table2(args) -> int:
    from repro.experiments.background import PAPER_TABLE2, table2
    from repro.metrics.tables import format_table

    table, _ = table2(seeds=range(args.seeds), buffers=(10, 15, 20))
    print(format_table("Table 2: 1MB transfer vs tcplib background",
                       table,
                       ratios_for={"Throughput (KB/s)": "reno",
                                   "Retransmissions (KB)": "reno"},
                       paper=PAPER_TABLE2))
    return 0


def print_table3(args) -> int:
    from repro.experiments.background import PAPER_TABLE3, table3

    results = table3(seeds=range(args.seeds), buffers=(10, 15, 20))
    print("Table 3: background throughput (KB/s)")
    print("background CC | transfer CC | measured | paper")
    for (bg, xfer), value in sorted(results.items()):
        print(f"{bg:>13} | {xfer:>11} | {value:8.1f} | "
              f"{PAPER_TABLE3[(bg, xfer)]:5.0f}")
    return 0


def print_table4(args) -> int:
    from repro.experiments.internet import PAPER_TABLE4, table4
    from repro.metrics.tables import format_table

    table = table4(seeds=range(args.seeds))
    print(format_table("Table 4: 1MB over the emulated UA->NIH path",
                       table,
                       ratios_for={"Throughput (KB/s)": "reno",
                                   "Retransmissions (KB)": "reno"},
                       paper=PAPER_TABLE4))
    return 0


def print_table5(args) -> int:
    from repro.experiments.internet import PAPER_TABLE5, table5
    from repro.metrics.tables import format_table

    tables = table5(seeds=range(args.seeds))
    for size in sorted(tables, reverse=True):
        print(format_table(f"Table 5 — {size // 1024} KB transfers",
                           tables[size],
                           ratios_for={"Throughput (KB/s)": "reno",
                                       "Retransmissions (KB)": "reno"},
                           paper=PAPER_TABLE5[size]))
        print()
    return 0


def print_sendbuf(args) -> int:
    from repro.experiments.sendbuf import DEFAULT_SIZES_KB, sendbuf_sweep

    print("§4.3 send-buffer sweep (1 MB solo transfers)")
    print("sndbuf | Reno KB/s (retx) | Vegas KB/s (retx)")
    reno = sendbuf_sweep("reno", sizes_kb=DEFAULT_SIZES_KB, seeds=(args.seed,))
    vegas = sendbuf_sweep("vegas", sizes_kb=DEFAULT_SIZES_KB,
                          seeds=(args.seed,))
    for size in DEFAULT_SIZES_KB:
        print(f"{size:4d}KB | {reno[size].throughput_kbps:8.1f} "
              f"({reno[size].retransmitted_kb:5.1f}) | "
              f"{vegas[size].throughput_kbps:8.1f} "
              f"({vegas[size].retransmitted_kb:5.1f})")
    return 0


def print_fairness(args) -> int:
    from repro.experiments.fairness_exp import run_competing_connections
    from repro.units import kb, mb

    print("§4.3 multiple competing connections (Jain index)")
    for count in (2, 4, 16):
        size = mb(2) if count <= 4 else kb(512)
        for cc in ("reno", "vegas"):
            for mixed in (False, True):
                result = run_competing_connections(
                    cc, count, transfer_bytes=size, mixed_delays=mixed,
                    buffers=20, seed=args.seed)
                delays = "2:1" if mixed else "equal"
                print(f"{count:3d} conns, {delays:5s} delays, {cc:5s}: "
                      f"Jain {result.fairness_index:.3f}, "
                      f"{result.coarse_timeouts} timeouts")
    return 0


def print_twoway(args) -> int:
    from repro.experiments.twoway import table_twoway
    from repro.metrics.tables import format_table

    table, _ = table_twoway(seeds=range(args.seeds), buffers=(10, 15, 20))
    print(format_table("§4.3 two-way background traffic", table,
                       ratios_for={"Throughput (KB/s)": "reno",
                                   "Retransmissions (KB)": "reno"}))
    return 0


def print_telnet(args) -> int:
    from repro.experiments.telnet_response import response_time_comparison

    means = response_time_comparison(seeds=range(args.seeds),
                                     arrival_mean=0.22, duration=120.0)
    reno, vegas = means["reno"], means["vegas"]
    speedup = (reno - vegas) / reno * 100 if reno else 0.0
    print("§6 TELNET response time (all-Reno vs all-Vegas world)")
    print(f"all-Reno : {reno * 1000:7.1f} ms mean")
    print(f"all-Vegas: {vegas * 1000:7.1f} ms mean "
          f"({speedup:+.1f}% vs Reno; paper: ~25% faster)")
    return 0


def configure_parser(sub) -> None:
    """Attach the paper-artifact subparsers to *sub*."""
    def add(name, fn, help_text, seeds=False, quick=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--seed", type=int, default=0,
                         help="root random seed")
        if seeds:
            cmd.add_argument("--seeds", type=int, default=3,
                             help="number of per-condition runs")
        if quick:
            cmd.add_argument("--quick", action="store_true",
                             help="fewer grid points")
        cmd.set_defaults(fn=fn)
        return cmd

    add("list", print_list, "list algorithms and subcommands")
    solo = add("solo", print_solo, "one transfer on the Figure-5 network")
    solo.add_argument("--cc", default="vegas",
                      help="congestion control (see `list`)")
    solo.add_argument("--size-kb", type=int, default=1024)
    solo.add_argument("--buffers", type=int, default=10)
    add("figure6", print_figure6, "Reno solo trace")
    add("figure7", print_figure7, "Vegas solo trace")
    add("figure9", print_figure9, "Vegas + tcplib background trace")
    add("table1", print_table1, "one-on-one transfers", quick=True)
    add("table2", print_table2, "transfer vs background traffic", seeds=True)
    add("table3", print_table3, "background throughput", seeds=True)
    add("table4", print_table4, "Internet 1MB transfers", seeds=True)
    add("table5", print_table5, "Internet transfer-size sweep", seeds=True)
    add("sendbuf", print_sendbuf, "send-buffer sweep")
    add("fairness", print_fairness, "competing connections")
    add("twoway", print_twoway, "two-way background traffic", seeds=True)
    add("telnet", print_telnet, "TELNET response time", seeds=True)
