"""The ``python -m repro search`` command.

Runs a black-box scenario search: points drawn by a seeded strategy,
each evaluated as registered harness cells through the supervised
runner — content-hash cache, per-cell timeouts/retries/quarantine, and
the distributed backend all apply exactly as in ``run-all``.

::

    python -m repro search --objective vegas_regret --strategy genetic \\
        --budget 40 --seed 1
    python -m repro search --objective fairness_cliff --strategy grid \\
        --budget 24 --json search.json --result search_result.json
    python -m repro search --objective vegas_regret --quick --budget 6 \\
        --out leaderboard.md
    python -m repro search --objective table_calibrate --backend dist \\
        --workers 4 --budget 60

Exit codes: 0 = search completed with at least one scored point,
2 = bad flags/selection, 3 = every evaluation failed, 130 = sweep
interrupted (partial artifacts flushed).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.errors import ReproError


def configure_parser(sub) -> None:
    """Attach the ``search`` subparser to *sub* (a subparsers action)."""
    from repro.harness import lease as lease_mod
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
    search.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: cpu count)")
    search.add_argument("--json", metavar="PATH",
                        help="write every evaluated cell as a standard "
                             "harness JSON artifact (gate with "
                             "`repro check`)")
    search.add_argument("--result", metavar="PATH", default=None,
                        help="write the repro-search/v1 result document "
                             "(points, fitnesses, leaderboard) here")
    search.add_argument("--out", metavar="PATH", default=None,
                        help="write the Markdown leaderboard here "
                             "(always printed to stdout)")
    search.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update .repro-cache/")
    search.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache location (default: $REPRO_CACHE_DIR "
                             "or .repro-cache)")
    search.add_argument("--timeout", type=float, metavar="SECONDS",
                        default=lease_mod.DEFAULT_TIMEOUT_S,
                        help="per-cell wall-clock deadline (default "
                             f"{lease_mod.DEFAULT_TIMEOUT_S:g}s)")
    search.add_argument("--no-timeout", action="store_true",
                        help="run unsupervised in-process (crashes and "
                             "hangs propagate raw)")
    search.add_argument("--retries", type=int, metavar="N",
                        default=lease_mod.DEFAULT_RETRIES,
                        help="re-executions before quarantine (default "
                             f"{lease_mod.DEFAULT_RETRIES})")
    search.add_argument("--watchdog", nargs="?", type=float,
                        metavar="STALL_SECONDS", const=True, default=False,
                        help="arm the simulation liveness watchdog")
    search.add_argument("--checks", nargs="?", const="raise",
                        choices=("raise", "collect"), default=False,
                        help="run with the runtime invariant checker")
    search.add_argument("--telemetry", metavar="PATH", default=None,
                        help="append the sweep's JSONL telemetry log here")
    search.add_argument("--backend", choices=("local", "dist"),
                        default="local",
                        help="execution backend for each evaluation round")
    search.add_argument("--workers", type=int, default=2, metavar="N",
                        help="[dist] local worker processes (default 2)")
    search.add_argument("--bind", metavar="HOST:PORT", default=None,
                        help="[dist] master listen address")
    search.add_argument("--preload", action="append", default=[],
                        metavar="MODULE",
                        help="[dist] import MODULE in every worker")
    search.set_defaults(fn=main)


def main(args) -> int:
    from repro.harness import artifacts, cache as cache_mod
    from repro.search import driver, objectives

    if args.budget < 1:
        print(f"error: --budget must be >= 1, got {args.budget}",
              file=sys.stderr)
        return 2
    if args.top < 1:
        print(f"error: --top must be >= 1, got {args.top}", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.retries < 0:
        print(f"error: --retries must be >= 0, got {args.retries}",
              file=sys.stderr)
        return 2
    timeout_s = None if args.no_timeout else args.timeout
    if timeout_s is not None and timeout_s <= 0:
        print(f"error: --timeout must be positive, got {timeout_s}",
              file=sys.stderr)
        return 2

    objective = objectives.get_objective(args.objective, quick=args.quick)

    src_hash = cache_mod.compute_src_hash()
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or cache_mod.default_cache_dir()
        cache = cache_mod.ResultCache(cache_dir, src_hash)

    dist_options = None
    if args.backend == "dist":
        if args.workers < 0:
            print(f"error: --workers must be >= 0, got {args.workers}",
                  file=sys.stderr)
            return 2
        dist_options = {"workers": args.workers, "journal": None,
                        "resume": False, "src_hash": src_hash,
                        "preload": args.preload, "chaos_kill_after": None}
        if args.bind:
            dist_options["bind"] = args.bind

    print(f"search: objective={objective.name} "
          f"({objective.direction}imize), strategy={args.strategy}, "
          f"budget={args.budget}, seed={args.seed}", file=sys.stderr)

    def progress(line: str) -> None:
        print(f"  {line}", file=sys.stderr)

    try:
        outcome = driver.run_search(
            objective, strategy=args.strategy, budget=args.budget,
            seed=args.seed, jobs=args.jobs, cache=cache, progress=progress,
            checks=args.checks, timeout_s=timeout_s, retries=args.retries,
            watchdog=args.watchdog, telemetry=args.telemetry,
            backend=args.backend, dist_options=dist_options)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = outcome.report
    if args.json:
        doc = artifacts.build_document(
            report, mode="search-quick" if args.quick else "search",
            src_hash=src_hash, telemetry=args.telemetry)
        artifacts.write_document(args.json, doc)
    if args.result:
        driver.write_search_document(
            args.result,
            driver.build_search_document(outcome, top=args.top,
                                         src_hash=src_hash))

    board = driver.render_leaderboard(outcome, top=args.top)
    print(board)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(board)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 2
        print(f"leaderboard written to {args.out}", file=sys.stderr)

    failed = sum(1 for ev in outcome.evaluations if ev.failed)
    print(f"{len(outcome.evaluations)} evaluations "
          f"({len(outcome.evaluations) - failed} scored, {failed} failed), "
          f"{len({k for e in outcome.evaluations for k in e.cells})} unique "
          f"cells, {report.elapsed_s:.1f}s harness time; "
          f"cache: {report.cache_hits} hits / {report.cache_misses} misses",
          file=sys.stderr)
    if args.json:
        print(f"JSON artifact: {args.json}", file=sys.stderr)
    if args.result:
        print(f"search result: {args.result}", file=sys.stderr)
    if report.failures:
        print(f"quarantined cells: {len(report.failures)} "
              "(reproduce with `run-all --only <key> --no-timeout`):",
              file=sys.stderr)
        for failure in report.failures:
            print(f"  {failure.key} [{failure.kind}] "
                  f"after {failure.attempts} attempt(s): {failure.message}",
                  file=sys.stderr)
    if report.interrupted:
        print("INTERRUPTED: search drained early; artifacts cover the "
              "settled prefix (exit 130)", file=sys.stderr)
        return 130
    if outcome.best is None:
        print("FAILED: no evaluation produced a score (exit 3)",
              file=sys.stderr)
        return 3
    return 0
