"""The ``python -m repro search`` command.

Runs a black-box scenario search: points drawn by a seeded strategy,
each evaluated as registered harness cells, one sweep per round — so
the shared sweep flags (:mod:`repro.harness.options`; README, "Sweep
options") apply exactly as in ``run-all``.

::

    python -m repro search --objective vegas_regret --strategy genetic \\
        --budget 40 --seed 1
    python -m repro search --objective fairness_cliff --strategy grid \\
        --budget 24 --json search.json --result search_result.json
    python -m repro search --objective vegas_regret --quick --budget 6 \\
        --out leaderboard.md
    python -m repro search --objective table_calibrate --jobs 4 \\
        --bind 0.0.0.0:7077 --budget 60

Exit codes: 0 = search completed with at least one scored point,
2 = bad flags/selection, 3 = every evaluation failed, 130 = sweep
interrupted (partial artifacts flushed).
"""

from __future__ import annotations

import sys

from repro.harness import options


def configure_parser(sub) -> None:
    """Attach the ``search`` subparser to *sub* (a subparsers action)."""
    from repro.search.objectives import OBJECTIVES
    from repro.search.strategies import STRATEGIES

    search = sub.add_parser(
        "search",
        help="black-box scenario search: optimize an objective "
             "(vegas_regret, fairness_cliff, table_calibrate) over "
             "bottleneck parameter space through the supervised harness")
    search.add_argument("--objective", required=True, choices=OBJECTIVES,
                        help="what to optimize (see EXPERIMENTS.md)")
    search.add_argument("--strategy", choices=sorted(STRATEGIES),
                        default="random",
                        help="point-proposal strategy (default random)")
    search.add_argument("--budget", type=int, default=20, metavar="N",
                        help="evaluations to spend (default 20)")
    search.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed for the strategy's proposal stream; "
                             "same space+seed+budget replays the identical "
                             "evaluation sequence (default 0)")
    search.add_argument("--top", type=int, default=10, metavar="K",
                        help="leaderboard size (default 10)")
    search.add_argument("--quick", action="store_true",
                        help="CI-sized search space: small transfers, "
                             "few flows")
    search.add_argument("--result", metavar="PATH", default=None,
                        help="write the repro-search/v1 result document "
                             "(points, fitnesses, leaderboard) here")
    search.add_argument("--out", metavar="PATH", default=None,
                        help="write the Markdown leaderboard here "
                             "(always printed to stdout)")
    options.add_sweep_options(search)
    search.set_defaults(fn=main)


def main(args) -> int:
    from repro.harness import artifacts
    from repro.search import driver, objectives

    options.require_at_least("--budget", args.budget, 1)
    options.require_at_least("--top", args.top, 1)
    opts = options.sweep_options(args)
    options.require_writable("--result", args.result)
    options.require_writable("--out", args.out)
    objective = objectives.get_objective(args.objective, quick=args.quick)

    print(f"search: objective={objective.name} "
          f"({objective.direction}imize), strategy={args.strategy}, "
          f"budget={args.budget}, seed={args.seed}", file=sys.stderr)
    outcome = driver.run_search(
        objective, strategy=args.strategy, budget=args.budget,
        seed=args.seed, opts=opts,
        progress=lambda line: print(f"  {line}", file=sys.stderr))

    report = outcome.report
    opts.document(report, "search-quick" if args.quick else "search")
    if args.result:
        artifacts.write_document(
            args.result,
            driver.build_search_document(outcome, top=args.top,
                                         src_hash=opts.src_hash))
    board = driver.render_leaderboard(outcome, top=args.top)
    print(board)
    if args.out:
        artifacts.write_text(args.out, board)
        print(f"leaderboard written to {args.out}", file=sys.stderr)

    failed = sum(1 for ev in outcome.evaluations if ev.failed)
    print(f"{len(outcome.evaluations)} evaluations "
          f"({len(outcome.evaluations) - failed} scored, {failed} failed), "
          f"{len({k for e in outcome.evaluations for k in e.cells})} unique "
          f"cells, {report.elapsed_s:.1f}s harness time; "
          f"cache: {report.cache_hits} hits / {report.cache_misses} misses",
          file=sys.stderr)
    if args.result:
        print(f"search result: {args.result}", file=sys.stderr)
    # Quarantined cells only cost the points that needed them.
    code = opts.finish(report, out=sys.stderr, fatal=False)
    if not code and outcome.best is None:
        print("FAILED: no evaluation produced a score (exit 3)",
              file=sys.stderr)
        code = 3
    return code
