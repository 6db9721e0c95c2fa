"""The ``python -m repro arena`` and ``python -m repro traces`` commands.

``arena`` generates a scheme × scenario × seed matchup matrix (see
:mod:`repro.arena.matrix`), executes it as one harness sweep and
renders the league tables (:mod:`repro.arena.league`); the sweep flags
are the shared table of :mod:`repro.harness.options` (README, "Sweep
options").  ``traces`` inspects the bandwidth traces behind the
time-varying scenarios.

::

    python -m repro arena --quick                       # 3x2x2 smoke matrix
    python -m repro arena --schemes vegas,reno --seeds 3
    python -m repro arena --scenarios classic,lfn --modes duel
    python -m repro arena --quick --json arena.json --out league.md
    python -m repro arena --dry-run                     # print cells, no runs
    python -m repro traces --scenario lte --seed 0

Exit codes mirror ``run-all``: 0 = every cell completed, 2 = bad
selection, 3 = cells quarantined (league still rendered from the
survivors), 130 = interrupted.
"""

from __future__ import annotations

import sys

from repro.harness import options


def configure_parser(sub) -> None:
    """Attach ``arena`` and ``traces`` to *sub* (a subparsers action)."""
    arena = sub.add_parser(
        "arena",
        help="tournament: every selected scheme x scenario x seed, solo, "
             "round-robin 1v1 and mixed-cohabitation, with league tables")
    arena.add_argument("--schemes", metavar="A,B,...|all", default=None,
                       help="scheme subset (default: the full 8-scheme "
                            "roster, or vegas,reno,tahoe with --quick)")
    arena.add_argument("--scenarios", metavar="A,B,...|all", default=None,
                       help="scenario subset (default: classic, shallow, "
                            "deep, lfn, metro; classic,shallow with --quick)")
    arena.add_argument("--seeds", type=int, default=None, metavar="N",
                       help="seeds per matchup, expanded to 0..N-1 "
                            "(default 3, or 2 with --quick)")
    arena.add_argument("--quick", action="store_true",
                       help="CI-sized default selection: 3 schemes x 2 "
                            "scenarios x 2 seeds")
    arena.add_argument("--modes", metavar="M,N,...", default=None,
                       help="matchup modes to include: solo, duel, mix "
                            "(default: all three)")
    arena.add_argument("--cross", default=None, metavar="SCHEME",
                       help="cross-traffic scheme for mix cells "
                            "(default reno)")
    arena.add_argument("--n-cross", type=int, default=None, metavar="N",
                       help="cross flows per mix cell (default 3)")
    arena.add_argument("--out", metavar="PATH", default=None,
                       help="write the league-table Markdown here "
                            "(always printed to stdout)")
    arena.add_argument("--dry-run", action="store_true",
                       help="print the generated cell keys and exit")
    options.add_sweep_options(arena)
    options.add_single_sweep_options(arena)
    arena.set_defaults(fn=main)

    traces = sub.add_parser(
        "traces",
        help="inspect the time-varying scenarios' bandwidth traces; "
             "export/import mahimahi delivery-opportunity files")
    traces.add_argument("--scenario", metavar="NAME", default=None,
                        help="build and summarize one scenario's trace "
                             "(default: list the time-varying scenarios)")
    traces.add_argument("--seed", type=int, default=0,
                        help="root seed for stochastic trace kinds")
    traces.add_argument("--export", metavar="PATH", default=None,
                        help="write the built trace as a mahimahi "
                             "delivery-opportunity file")
    traces.add_argument("--duration", type=float, default=None,
                        help="seconds of trace to export "
                             "(default: one cycle)")
    traces.add_argument("--load", metavar="PATH", default=None,
                        help="summarize a mahimahi file instead")
    traces.set_defaults(fn=show_traces)


def main(args) -> int:
    from repro.arena import league, matrix
    from repro.harness import artifacts

    seeds = args.seeds if args.seeds is not None else (2 if args.quick else 3)
    cells = matrix.generate_matrix(
        schemes=args.schemes, scenarios=args.scenarios,
        seeds=seeds,
        modes=(matrix.MODES if args.modes is None
               else tuple(options.split_csv(args.modes))),
        cross=args.cross or matrix.DEFAULT_CROSS,
        n_cross=(args.n_cross if args.n_cross is not None
                 else matrix.DEFAULT_N_CROSS),
        quick=args.quick)
    opts = options.sweep_options(args)
    options.require_writable("--out", args.out)

    print(f"arena matrix: {matrix.describe_matrix(cells)}", file=sys.stderr)
    if args.dry_run:
        for cell in cells:
            print(cell.key)
        return 0

    report = opts.run(cells, options.counting_progress(len(cells)))
    doc = opts.document(report, "arena-quick" if args.quick else "arena")
    table = league.render_league(
        doc["cells"], title="Arena league"
        + (f" — {len(report.failures)} cell(s) quarantined"
           if report.failures else ""))
    print(table)
    if args.out:
        artifacts.write_text(args.out, table)
        print(f"league written to {args.out}", file=sys.stderr)

    print(f"{len(cells)} cells, jobs={report.jobs}, "
          f"{report.elapsed_s:.1f}s elapsed; "
          f"cache: {report.cache_hits} hits / {report.cache_misses} misses",
          file=sys.stderr)
    return opts.finish(report, out=sys.stderr)


_SPARK = "▁▂▃▄▅▆▇█"


def _trace_profile(trace, width: int = 64) -> str:
    """One-line sparkline of the rate profile over one cycle."""
    span = trace.period if trace.period is not None \
        else max(trace.times[-1], 1.0)
    top = trace.max_rate or 1.0
    cells = []
    for i in range(width):
        rate = trace.rate_at(i * span / width)
        cells.append(_SPARK[min(len(_SPARK) - 1,
                                int(rate / top * (len(_SPARK) - 1) + 0.5))])
    return "".join(cells)


def _trace_summary(trace) -> str:
    cyc = (f"cyclic, period {trace.period:g} s" if trace.period is not None
           else "non-cyclic")
    return (f"{len(trace.rates)} segment(s), {cyc}; "
            f"mean {trace.mean_rate / 1024:.1f} KB/s, "
            f"min {trace.min_rate / 1024:.1f}, "
            f"max {trace.max_rate / 1024:.1f}")


def show_traces(args) -> int:
    from repro.arena.scenarios import SCENARIOS, get_scenario
    from repro.net.traces import load_mahimahi, save_mahimahi
    from repro.sim.rng import RngRegistry

    if args.load:
        trace = load_mahimahi(args.load)
        print(f"{args.load}: {_trace_summary(trace)}")
        print(f"  {_trace_profile(trace)}")
        return 0

    if not args.scenario:
        print("Time-varying arena scenarios "
              "(inspect one with --scenario NAME):")
        for name in sorted(SCENARIOS):
            spec = SCENARIOS[name]
            if not spec.time_varying:
                continue
            loss = f", loss {spec.loss:.1%}" if spec.loss else ""
            print(f"  {name:7s} {spec.trace.describe()}{loss}")
        return 0

    spec = get_scenario(args.scenario)
    if spec.trace is None:
        raise options.UsageError(f"scenario {args.scenario!r} has a static "
                                 "bottleneck (no trace)")
    trace = spec.trace.build(RngRegistry(args.seed).stream("link-trace"))
    loss = f", loss {spec.loss:.1%}" if spec.loss else ""
    print(f"{args.scenario} (seed {args.seed}): "
          f"{spec.trace.describe()}{loss}")
    print(f"  {_trace_summary(trace)}")
    print(f"  {_trace_profile(trace)}")
    if args.export:
        written = save_mahimahi(trace, args.export,
                                duration=args.duration)
        print(f"  wrote {written} delivery opportunities "
              f"(mahimahi format) to {args.export}")
    return 0
