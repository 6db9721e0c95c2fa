"""The ``run-all`` and ``dist worker`` commands.

``run-all`` is the one command that runs a paper artifact: it sweeps
every selected experiment's registered cell grid through
:func:`repro.harness.runner.run_cells` and prints each one's
paper-style section.  ``--bind`` lets ``dist worker`` processes attach
to its master.  The sweep flags are declared in
:mod:`repro.harness.options` (see README, "Sweep options").

Exit codes: 0 = every cell completed, 1 = invariant violations
collected, 2 = bad flags/selection, 3 = cells quarantined, 130 =
interrupted (partial artifact flushed; completed cells are cached, so
re-running the same command executes only the rest).
"""

from __future__ import annotations

from repro.harness import options


def configure_parser(sub) -> None:
    """Attach ``run-all`` and ``dist`` to *sub* (a subparsers action)."""
    from repro.harness.dist import worker

    cmd = sub.add_parser(
        "run-all",
        help="run every experiment's cell grid in parallel, with caching")
    cmd.add_argument("--quick", action="store_true",
                     help="reduced grids (the CI smoke configuration)")
    cmd.add_argument("--experiments", metavar="A,B,...",
                     help="comma-separated subset (default: all)")
    cmd.add_argument("--seed", type=int, default=None, metavar="S",
                     help="first seed of the seed axis (default 0)")
    cmd.add_argument("--seeds", type=int, default=None, metavar="N",
                     help="run every condition at seeds S..S+N-1 "
                          "(default 1 with --seed; without either "
                          "flag, each grid keeps its own seeds)")
    cmd.add_argument("--only", metavar="KEY[,KEY...]", default=None,
                     help="run only the cells whose key equals (or is "
                          "prefixed by) a selector — the way to "
                          "reproduce one quarantined cell")
    options.add_sweep_options(cmd)
    cmd.set_defaults(fn=run_all)
    dist = sub.add_parser(
        "dist",
        help="distributed sweep backend: attach a worker process to a "
             "`run-all --bind HOST:PORT` master")
    worker.configure_parser(dist.add_subparsers(dest="dist_command",
                                                required=True))


def run_all(args) -> int:
    from repro.harness import aggregate, artifacts, registry

    seeds = None
    if args.seed is not None or args.seeds is not None:
        runs = 1 if args.seeds is None else args.seeds
        options.require_at_least("--seeds", runs, 1)
        first = args.seed or 0
        seeds = range(first, first + runs)
    cells = registry.all_cells(
        quick=args.quick,
        experiments=options.split_csv(args.experiments) or None,
        seeds=seeds)
    if args.only:
        wanted = options.split_csv(args.only)
        cells = [cell for cell in cells
                 if any(cell.key == sel or cell.key.startswith(sel + "/")
                        for sel in wanted)]
        if not cells:
            raise options.UsageError(
                f"--only {args.only!r} matches no cell "
                "(keys look like 'table2/buffers=10/proto=reno/seed=0')")
    opts = options.sweep_options(args)

    report = opts.run(cells, options.counting_progress(len(cells)))
    doc = opts.document(report, "quick" if args.quick else "full")
    print(aggregate.summarize(doc["cells"]))
    print()
    print(f"{len(cells)} cells, jobs={report.jobs}, "
          f"{report.elapsed_s:.1f}s elapsed "
          f"(cell wall clock {doc['run']['cell_wall_clock_s']:.1f}s); "
          f"cache: {report.cache_hits} hits / {report.cache_misses} misses")
    print(f"cell fingerprint: {artifacts.cells_fingerprint(doc)}")
    return opts.finish(report)

