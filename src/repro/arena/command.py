"""The ``python -m repro traces`` command.

``traces`` inspects the bandwidth traces behind the arena's
time-varying scenarios and converts them to and from mahimahi
delivery-opportunity files.  The arena itself is a registry
experiment: ``python -m repro run-all --experiments arena``.

::

    python -m repro traces                              # list them
    python -m repro traces --scenario lte --seed 0
    python -m repro traces --scenario steps --export steps.trace
    python -m repro traces --load steps.trace
"""

from __future__ import annotations

from repro.harness import options


def configure_parser(sub) -> None:
    """Attach ``traces`` to *sub* (a subparsers action)."""
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
