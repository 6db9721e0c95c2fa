"""The ``python -m repro arena`` command.

Generates a scheme × scenario × seed matchup matrix (see
:mod:`repro.arena.matrix`), executes it through the supervised harness
— per-cell timeouts, retries, quarantine, content-hash result cache —
and renders the league tables (:mod:`repro.arena.league`).

::

    python -m repro arena --quick                       # 3x2x2 smoke matrix
    python -m repro arena --schemes vegas,reno --seeds 3
    python -m repro arena --scenarios classic,lfn --modes duel
    python -m repro arena --quick --json arena.json --out league.md
    python -m repro arena --dry-run                     # print cells, no runs

Exit codes mirror ``run-all``: 0 = every cell completed, 2 = bad
selection, 3 = cells quarantined (league still rendered from the
survivors).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.errors import ReproError


def configure_parser(sub) -> None:
    """Attach the ``arena`` subparser to *sub* (a subparsers action)."""
    from repro.harness import lease as lease_mod

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
    arena.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: cpu count)")
    arena.add_argument("--json", metavar="PATH",
                       help="write the matrix results as a harness JSON "
                            "artifact (gate with `repro check`)")
    arena.add_argument("--out", metavar="PATH", default=None,
                       help="write the league-table Markdown here "
                            "(always printed to stdout)")
    arena.add_argument("--no-cache", action="store_true",
                       help="ignore and do not update .repro-cache/")
    arena.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache location (default: $REPRO_CACHE_DIR "
                            "or .repro-cache)")
    arena.add_argument("--timeout", type=float, metavar="SECONDS",
                       default=lease_mod.DEFAULT_TIMEOUT_S,
                       help="per-cell wall-clock deadline (default "
                            f"{lease_mod.DEFAULT_TIMEOUT_S:g}s)")
    arena.add_argument("--no-timeout", action="store_true",
                       help="run unsupervised in-process (crashes and "
                            "hangs propagate raw)")
    arena.add_argument("--retries", type=int, metavar="N",
                       default=lease_mod.DEFAULT_RETRIES,
                       help="re-executions before quarantine (default "
                            f"{lease_mod.DEFAULT_RETRIES})")
    arena.add_argument("--checks", nargs="?", const="raise",
                       choices=("raise", "collect"), default=False,
                       help="run with the runtime invariant checker")
    arena.add_argument("--telemetry", metavar="PATH", default=None,
                       help="append the sweep's JSONL telemetry log here")
    arena.add_argument("--dry-run", action="store_true",
                       help="print the generated cell keys and exit")
    arena.set_defaults(fn=main)


def main(args) -> int:
    from repro.arena import league, matrix
    from repro.harness import artifacts, cache as cache_mod, registry, runner

    seeds = args.seeds if args.seeds is not None else (2 if args.quick else 3)
    modes = (matrix.MODES if args.modes is None
             else tuple(m.strip() for m in args.modes.split(",")
                        if m.strip()))
    try:
        cells = registry.family_cells(
            "arena", schemes=args.schemes, scenarios=args.scenarios,
            seeds=seeds, modes=modes,
            cross=args.cross or matrix.DEFAULT_CROSS,
            n_cross=(args.n_cross if args.n_cross is not None
                     else matrix.DEFAULT_N_CROSS),
            quick=args.quick)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
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

    print(f"arena matrix: {matrix.describe_matrix(cells)}", file=sys.stderr)
    if args.dry_run:
        for cell in cells:
            print(cell.key)
        return 0

    src_hash = cache_mod.compute_src_hash()
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or cache_mod.default_cache_dir()
        cache = cache_mod.ResultCache(cache_dir, src_hash)

    total = len(cells)
    done = [0]

    def progress(line: str) -> None:
        if "retrying in" not in line:
            done[0] += 1
        print(f"[{done[0]}/{total}] {line}", file=sys.stderr)

    report = runner.run_cells(cells, jobs=args.jobs, cache=cache,
                              progress=progress, checks=args.checks,
                              timeout_s=timeout_s, retries=args.retries,
                              telemetry=args.telemetry)
    doc = artifacts.build_document(
        report, mode="arena-quick" if args.quick else "arena",
        src_hash=src_hash, telemetry=args.telemetry)
    if args.json:
        artifacts.write_document(args.json, doc)

    table = league.render_league(
        doc["cells"], title="Arena league"
        + (f" — {len(report.failures)} cell(s) quarantined"
           if report.failures else ""))
    print(table)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(table)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 2
        print(f"league written to {args.out}", file=sys.stderr)

    print(f"{total} cells, jobs={report.jobs}, "
          f"{report.elapsed_s:.1f}s elapsed; "
          f"cache: {report.cache_hits} hits / {report.cache_misses} misses",
          file=sys.stderr)
    if args.json:
        print(f"JSON artifact: {args.json}", file=sys.stderr)
    if report.failures:
        print(f"\nFAILED: {len(report.failures)} cell(s) quarantined "
              "(exit 3; reproduce with `run-all --only <key> --no-timeout`):",
              file=sys.stderr)
        for failure in report.failures:
            print(f"  {failure.key} [{failure.kind}] "
                  f"after {failure.attempts} attempt(s): {failure.message}",
                  file=sys.stderr)
    if args.checks:
        violations = sum(int(r.metrics.get("invariant_violations", 0.0))
                         for r in report.results)
        print(f"invariant violations: {violations}", file=sys.stderr)
        if violations and not report.failures:
            return 1
    return 3 if report.failures else 0
