"""The ``python -m repro bench`` suite and its regression comparator.

Runs a curated set of representative harness cells — solo traced runs
(figure6/figure7), a tcplib-background cell (the table2 workload that
dominates sweep time), a faulted cell, and a checks-on cell — each
*rounds* times with a :class:`~repro.perf.counters.PerfProbe`
attached, and writes ``BENCH_engine.json`` at the repo root::

    {
      "schema_version": "repro-bench/v1",
      "rounds": 3,
      "cells": {
        "figure6": {"events_per_sec": ..., "wall_s": ..., "events": ...,
                    "peak_heap": ...},
        ...
      },
      "micro": { ...Vegas-vs-Reno overhead (see repro.perf.micro)... }
    }

``events`` and ``peak_heap`` are pure functions of the simulation, so
the comparator gates them **exactly** against
``baselines/bench_baseline.json`` (the bit-identical determinism
check, suitable for noisy CI runners); ``events_per_sec`` is gated
with a relative tolerance (default: fail on >25% regression) and can
be disabled with ``--no-timing-gate`` where runners are too noisy.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError, exit_code
from repro.harness.artifacts import load_json, write_document

#: Bump on any change to the BENCH document layout.
SCHEMA_VERSION = "repro-bench/v1"

#: Default artifact and baseline locations (repo-root relative).
DEFAULT_ARTIFACT = "BENCH_engine.json"
DEFAULT_BASELINE = "baselines/bench_baseline.json"

#: Fail the timing gate when events/sec drops by more than this.
DEFAULT_MAX_REGRESSION = 0.25


def bench_suite() -> List[Dict[str, Any]]:
    """The curated cells: (name, cell, checks, faults) descriptors."""
    from repro.harness.registry import Cell

    return [
        {"name": "figure6",
         "cell": Cell.make("figure6", seed=0)},
        {"name": "figure7",
         "cell": Cell.make("figure7", seed=0)},
        {"name": "table2_background",
         "cell": Cell.make("table2", proto="vegas-1,3", buffers=10, seed=0)},
        {"name": "table2_faulted",
         "cell": Cell.make("table2", proto="reno", buffers=10, seed=0),
         "faults": "light"},
        {"name": "figure6_checked",
         "cell": Cell.make("figure6", seed=0),
         "checks": "raise"},
        # Engine-scaling family: hundreds of concurrent tcplib
        # conversations (see repro.experiments.many_flows).  The 500
        # and 1000-flow points exercise the far-horizon calendar
        # scheduler; 100 stays below its threshold and covers the
        # plain-heap fallback.
        {"name": "many_flows_100",
         "cell": Cell.make("many_flows", flows=100, seed=0)},
        {"name": "many_flows_500",
         "cell": Cell.make("many_flows", flows=500, seed=0)},
        {"name": "many_flows_1000",
         "cell": Cell.make("many_flows", flows=1000, seed=0)},
    ]


def run_bench_cell(descriptor: Dict[str, Any],
                   rounds: int = 3) -> Dict[str, Any]:
    """Run one suite cell *rounds* times and aggregate its counters.

    One probed warmup round records the deterministic counters
    (events, peak heap) and primes caches; the timed rounds then run
    the *production* dispatch loop — no probe attached, so the numbers
    measure the engine users get, not the instrumented one.  Raises
    :class:`ReproError` if any timed round's event count disagrees
    with the warmup — a bug in the engine's optimizations would
    surface here first.
    """
    from repro.harness.registry import run_cell
    from repro.perf.counters import profiling
    from repro.sim.engine import last_simulator

    kwargs = dict(checks=descriptor.get("checks", False),
                  faults=descriptor.get("faults"))
    with profiling() as probe:
        run_cell(descriptor["cell"], **kwargs)
    ref_events = last_simulator().events_processed

    walls: List[float] = []
    cpus: List[float] = []
    for _ in range(rounds):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        run_cell(descriptor["cell"], **kwargs)
        cpus.append(time.process_time() - cpu0)
        walls.append(time.perf_counter() - t0)
        got = last_simulator().events_processed
        if got != ref_events:
            raise ReproError(
                f"{descriptor['name']}: nondeterministic event count "
                f"across rounds ({got} != {ref_events})")
    wall = statistics.median(walls)
    cpu = statistics.median(cpus)
    return {
        "events_per_sec": round(ref_events / wall, 1) if wall > 0 else 0.0,
        # CPU-time twin of the wall gate: process_time is immune to
        # scheduler noise on shared runners, so A/B comparisons should
        # prefer it (the comparator does when both sides carry it).
        "events_per_sec_cpu": round(ref_events / cpu, 1) if cpu > 0 else 0.0,
        "wall_s": round(wall, 6),
        "wall_s_min": round(min(walls), 6),
        "cpu_s": round(cpu, 6),
        "cpu_s_min": round(min(cpus), 6),
        "events": ref_events,
        "peak_heap": probe.peak_heap,
    }


def select_cells(names: Optional[Sequence[str]]) -> List[Dict[str, Any]]:
    """Suite descriptors restricted to *names* (``None`` = all).

    Order follows the suite, not the selection, so artifacts stay
    stable however the CLI spells the subset.  Unknown names raise —
    a typo in a CI slice must fail loudly, not silently shrink the
    gate.
    """
    suite = bench_suite()
    if names is None:
        return suite
    known = {descriptor["name"] for descriptor in suite}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ReproError(
            f"unknown bench cell(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}")
    wanted = set(names)
    return [d for d in suite if d["name"] in wanted]


def run_suite(rounds: int = 3,
              progress=None,
              cells_filter: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Run every suite cell plus the micro section; build the document."""
    from repro.perf.micro import vegas_overhead

    cells: Dict[str, Any] = {}
    for descriptor in select_cells(cells_filter):
        cells[descriptor["name"]] = run_bench_cell(descriptor, rounds=rounds)
        if progress is not None:
            result = cells[descriptor["name"]]
            progress(f"{descriptor['name']}: "
                     f"{result['events_per_sec']:,.0f} events/s "
                     f"({result['events']} events, "
                     f"{result['wall_s'] * 1000:.0f} ms)")
    micro = vegas_overhead(rounds=rounds)
    if progress is not None:
        progress(f"micro: vegas overhead {micro['overhead_pct']:+.1f}% "
                 f"vs reno")
    return {
        "schema_version": SCHEMA_VERSION,
        "rounds": rounds,
        "cells": cells,
        "micro": micro,
    }


def load_document(path: str) -> Dict[str, Any]:
    doc = load_json(path, "bench artifact", SCHEMA_VERSION)
    if not isinstance(doc.get("cells"), dict):
        raise ReproError(f"{path!r}: artifact has no cells mapping")
    return doc


def compare(current: Dict[str, Any], baseline: Dict[str, Any],
            max_regression: float = DEFAULT_MAX_REGRESSION,
            timing: bool = True) -> List[str]:
    """All gate violations of *current* against *baseline*.

    Determinism (``events``, ``peak_heap``) is compared exactly for
    every baseline cell; ``events_per_sec`` only when *timing* is true,
    failing on a drop of more than *max_regression*.  Cells only in
    *current* are new and never fail the gate.
    """
    problems: List[str] = []
    for name in sorted(baseline["cells"]):
        want = baseline["cells"][name]
        got = current["cells"].get(name)
        if got is None:
            problems.append(f"missing bench cell: {name}")
            continue
        for metric in ("events", "peak_heap"):
            if got.get(metric) != want.get(metric):
                problems.append(
                    f"{name}: {metric} = {got.get(metric)}, baseline "
                    f"{want.get(metric)} (must match exactly)")
        if timing:
            # Prefer the CPU-time A/B when both documents carry it:
            # process_time ignores co-tenant noise, so the gate
            # measures the engine, not the runner.  Wall-clock is the
            # fallback for baselines predating the cpu fields.
            metric = "events_per_sec_cpu"
            want_rate = want.get(metric, 0.0)
            got_rate = got.get(metric, 0.0)
            if not (want_rate > 0 and got_rate > 0):
                metric = "events_per_sec"
                want_rate = want.get(metric, 0.0)
                got_rate = got.get(metric, 0.0)
            if want_rate > 0 and got_rate < want_rate * (1.0 - max_regression):
                problems.append(
                    f"{name}: {metric} {got_rate:,.0f} is "
                    f"{(1 - got_rate / want_rate) * 100:.0f}% below "
                    f"baseline {want_rate:,.0f} "
                    f"(gate: {max_regression * 100:.0f}%)")
    return problems


def dirty_tracked_files() -> Optional[List[str]]:
    """Tracked files with uncommitted changes, or ``None`` outside git.

    The baseline must describe *committed* engine code — a baseline
    captured from a dirty tree pins numbers nobody can reproduce from
    the repository.  Untracked files are ignored: scratch artifacts
    (including a fresh ``BENCH_engine.json``) don't change what the
    suite measured.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return [line[3:] for line in out.stdout.splitlines() if line.strip()]


def add_arguments(parser) -> None:
    parser.add_argument("--rounds", type=int, default=3,
                        help="runs per cell; median wall time is reported "
                             "(default 3)")
    parser.add_argument("--json", metavar="PATH", default=DEFAULT_ARTIFACT,
                        help=f"artifact path (default {DEFAULT_ARTIFACT})")
    parser.add_argument("--baseline", metavar="PATH", default=DEFAULT_BASELINE,
                        help=f"committed baseline (default {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the baseline comparison entirely")
    parser.add_argument("--no-timing-gate", action="store_true",
                        help="gate only on the bit-identical determinism "
                             "check (events, peak_heap), not events/sec — "
                             "for noisy CI runners")
    parser.add_argument("--max-regression", type=float,
                        default=DEFAULT_MAX_REGRESSION,
                        help="events/sec drop that fails the timing gate "
                             "(default 0.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the run to the baseline path instead of "
                             "comparing against it (refused from a dirty "
                             "working tree unless --force is given)")
    parser.add_argument("--force", action="store_true",
                        help="allow --update-baseline despite uncommitted "
                             "changes to tracked files")
    parser.add_argument("--cells", metavar="A,B,...", default=None,
                        help="run only these suite cells (comma-separated); "
                             "the baseline gate then covers just the "
                             "selection — used by CI to keep the heavy "
                             "many-flows points out of the PR loop")
    parser.set_defaults(fn=run)


HELP = ("run the engine benchmark suite; write BENCH_engine.json and "
        "gate against the committed baseline")


def configure_parser(sub) -> None:
    """Attach the ``bench`` subparser to *sub* (a subparsers action)."""
    add_arguments(sub.add_parser("bench", help=HELP))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro bench", description=HELP)
    add_arguments(parser)
    return exit_code(run, parser.parse_args(argv))


def run(args) -> int:
    if args.rounds < 1:
        print(f"error: --rounds must be >= 1, got {args.rounds}",
              file=sys.stderr)
        return 2
    cells_filter = None
    if args.cells:
        cells_filter = [name.strip() for name in args.cells.split(",")
                        if name.strip()]
    if args.update_baseline and cells_filter is not None:
        print("error: --update-baseline needs the full suite; drop --cells",
              file=sys.stderr)
        return 2
    if args.update_baseline and not args.force:
        dirty = dirty_tracked_files()
        if dirty:
            print("error: refusing --update-baseline: working tree has "
                  "uncommitted changes to tracked files:", file=sys.stderr)
            for path in dirty[:10]:
                print(f"  {path}", file=sys.stderr)
            if len(dirty) > 10:
                print(f"  ... and {len(dirty) - 10} more", file=sys.stderr)
            print("hint: commit first, or pass --force to pin a baseline "
                  "from uncommitted code", file=sys.stderr)
            return 2

    doc = run_suite(rounds=args.rounds,
                    progress=lambda line: print(line, file=sys.stderr),
                    cells_filter=cells_filter)
    write_document(args.json, doc)
    print(f"BENCH artifact: {args.json}")
    if args.update_baseline:
        write_document(args.baseline, doc)
        print(f"baseline updated: {args.baseline}")
        return 0
    if args.no_baseline:
        return 0

    try:
        baseline = load_document(args.baseline)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: create one with `python -m repro bench "
              "--update-baseline`", file=sys.stderr)
        return 2
    if cells_filter is not None:
        # A sliced run gates only the cells it measured; the cells it
        # skipped would otherwise all fail as "missing".
        baseline = dict(baseline)
        baseline["cells"] = {name: value
                             for name, value in baseline["cells"].items()
                             if name in set(cells_filter)}
    problems = compare(doc, baseline,
                       max_regression=args.max_regression,
                       timing=not args.no_timing_gate)
    if problems:
        print(f"FAIL: {len(problems)} problem(s) vs {args.baseline}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    gate = ("determinism only" if args.no_timing_gate
            else f"determinism + timing ({args.max_regression * 100:.0f}%)")
    print(f"OK: {len(baseline['cells'])} bench cell(s) within gate ({gate})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
