"""The ``list`` and ``solo`` commands.

Every paper table and figure is a registry experiment that ``run-all
--experiments X`` runs, caches and renders; the ASCII trace panels of
Figures 6, 7 and 9 are ``examples/trace_comparison.py``.
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


def configure_parser(sub) -> None:
    """Attach ``list`` and ``solo`` to *sub*."""
    sub.add_parser("list", help="list algorithms and subcommands"
                   ).set_defaults(fn=print_list)
    solo = sub.add_parser("solo", help="one transfer on the Figure-5 network")
    solo.add_argument("--cc", default="vegas",
                      help="congestion control (see `list`)")
    solo.add_argument("--size-kb", type=int, default=1024)
    solo.add_argument("--buffers", type=int, default=10)
    solo.add_argument("--seed", type=int, default=0, help="root random seed")
    solo.set_defaults(fn=print_solo)
