"""The paper-artifact commands: every table, figure and §4.3/§6 study.

The nine tabular verbs are one function, :func:`print_artifact`, and
the three figure verbs another, :func:`print_figure`: the figure's
registry renderer over its traced run, then ASCII panels drawn from the
run's ``TraceGraph`` (which is not a cell metric).  ``list`` and
``solo`` ride along.
"""

from __future__ import annotations

from repro.experiments import defaults as DFLT


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
    from repro.harness.options import require_at_least
    from repro.units import kb

    require_at_least("--size-kb", args.size_kb, 1)
    result = run_solo_transfer(args.cc, size=kb(args.size_kb),
                               buffers=args.buffers, seed=args.seed)
    print(f"{args.cc}: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted, "
          f"{result.coarse_timeouts} coarse timeouts "
          f"({args.size_kb} KB over the Figure-5 bottleneck, "
          f"{args.buffers} buffers)")
    return 0


def print_figure(args) -> int:
    """A figure verb: its registry renderer's section over the traced
    run, then the run's ASCII panels."""
    from repro.experiments import traces
    from repro.harness import registry
    from repro.trace.ascii_plot import (
        render_cam_panel,
        render_rate_panel,
        render_windows_panel,
    )

    graph, result = getattr(traces, args.command)(seed=args.seed)
    cell = registry.Cell.make(args.command, seed=args.seed)
    render = registry.experiment(args.command).render
    print(render([{"key": cell.key, "experiment": cell.experiment,
                   "params": cell.as_dict(),
                   "metrics": registry._traced_metrics(graph, result)}]))
    print()
    print(render_windows_panel(graph))
    print(render_rate_panel(graph) if graph.cam is None
          else render_cam_panel(graph))
    return 0


def print_artifact(args) -> int:
    """A tabular verb: its registry cells in the harness's rendering.

    The full grid (``table1 --quick``: the quick one) with ``--seed S
    --seeds N`` as its seed axis ``S .. S+N-1``, run serially in this
    process, uncached, errors raw; ``run-all --experiments <verb>``
    prints the same table from the same cells.
    """
    from repro.harness import aggregate, artifacts, options, registry, runner

    runs = getattr(args, "seeds", 1)
    options.require_at_least("--seeds", runs, 1)
    cells = registry.cells_for(args.command,
                               quick=getattr(args, "quick", False),
                               seeds=range(args.seed, args.seed + runs))
    report = runner.run_cells(cells)
    if report.interrupted:
        # run_cells drained a Ctrl-C into the report: a table of the
        # cells that did finish would pass for the whole one.
        return 130
    doc = artifacts.build_document(report, mode="verb", src_hash="")
    print(aggregate.summarize(doc["cells"]))
    return 0


def configure_parser(sub) -> None:
    """Attach the paper-artifact subparsers to *sub*."""
    def add(name, help_text, fn=print_artifact, seeds=False, quick=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--seed", type=int, default=0,
                         help="root random seed")
        if seeds:
            cmd.add_argument("--seeds", type=int,
                             default=DFLT.RUNS_PER_CONDITION,
                             help="number of per-condition runs")
        if quick:
            cmd.add_argument("--quick", action="store_true",
                             help="fewer grid points")
        cmd.set_defaults(fn=fn)
        return cmd

    add("list", "list algorithms and subcommands", print_list)
    solo = add("solo", "one transfer on the Figure-5 network", print_solo)
    solo.add_argument("--cc", default="vegas",
                      help="congestion control (see `list`)")
    solo.add_argument("--size-kb", type=int, default=1024)
    solo.add_argument("--buffers", type=int, default=10)
    add("figure6", "Reno solo trace", print_figure)
    add("figure7", "Vegas solo trace", print_figure)
    add("figure9", "Vegas + tcplib background trace", print_figure)
    add("table1", "one-on-one transfers", quick=True)
    add("table2", "transfer vs background traffic", seeds=True)
    add("table3", "background throughput", seeds=True)
    add("table4", "Internet 1MB transfers", seeds=True)
    add("table5", "Internet transfer-size sweep", seeds=True)
    add("sendbuf", "send-buffer sweep")
    add("fairness", "competing connections")
    add("twoway", "two-way background traffic", seeds=True)
    add("telnet", "TELNET response time", seeds=True)
