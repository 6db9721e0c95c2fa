"""The ``run-all`` and ``dist {run,worker,journal}`` commands.

``run-all`` sweeps every experiment's registered cell grid through
:func:`repro.harness.runner.run_cells`; ``dist run`` is the same verb
with ``--backend dist`` preset.  The sweep flags are declared in
:mod:`repro.harness.options` (see README, "Sweep options").

Exit codes: 0 = every cell completed, 1 = invariant violations
collected, 2 = bad flags/selection, 3 = cells quarantined, 130 =
interrupted (partial artifact flushed).
"""

from __future__ import annotations

from repro.harness import options


def _add_run_all_arguments(cmd) -> None:
    cmd.add_argument("--quick", action="store_true",
                     help="reduced grids (the CI smoke configuration)")
    cmd.add_argument("--experiments", metavar="A,B,...",
                     help="comma-separated subset (default: all)")
    cmd.add_argument("--only", metavar="KEY[,KEY...]", default=None,
                     help="run only the cells whose key equals (or is "
                          "prefixed by) a selector — the way to "
                          "reproduce one quarantined cell")
    options.add_sweep_options(cmd)
    options.add_single_sweep_options(cmd)
    cmd.set_defaults(fn=run_all)


def configure_parser(sub) -> None:
    """Attach ``run-all`` and ``dist`` to *sub* (a subparsers action)."""
    from repro.harness.dist import worker

    _add_run_all_arguments(sub.add_parser(
        "run-all",
        help="run every experiment's cell grid in parallel, with caching"))
    dist = sub.add_parser(
        "dist",
        help="distributed sweep backend: run a sweep across worker "
             "processes, attach a worker, or inspect a run journal")
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)
    dist_run = dist_sub.add_parser(
        "run",
        help="run-all on the distributed backend "
             "(shorthand for `run-all --backend dist`)")
    _add_run_all_arguments(dist_run)
    dist_run.set_defaults(backend="dist")
    worker.configure_parser(dist_sub)
    journal = dist_sub.add_parser(
        "journal",
        help="summarize a dist run journal: settled results, "
             "quarantines, resumability")
    journal.add_argument("journal", help="journal file from "
                                         "`dist run --journal`")
    journal.set_defaults(fn=show_journal)


def run_all(args) -> int:
    from repro.harness import aggregate, artifacts, registry

    cells = registry.all_cells(
        quick=args.quick,
        experiments=options.split_csv(args.experiments) or None)
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


def show_journal(args) -> int:
    from repro.harness.dist import journal

    state = journal.replay(args.journal)
    torn = " (torn trailing line dropped)" if state.truncated else ""
    print(f"journal: {args.journal}")
    print(f"records: {state.records}{torn}")
    print(f"src hash: {state.src_hash}")
    print(f"results: {len(state.results)}")
    print(f"quarantined: {len(state.failures)}")
    for key, failure in sorted(state.failures.items()):
        print(f"  {key} [{failure.get('kind')}] after "
              f"{failure.get('attempts')} attempt(s)")
    return 0
