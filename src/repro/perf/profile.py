"""``python -m repro profile``: cProfile one harness cell.

``bench/run.py`` measures *whether* the code got slower; this command
answers *where the time goes* in any one cell.  It runs the cell under
:mod:`cProfile` with a :class:`~repro.perf.counters.PerfProbe`
attached and prints the hottest functions alongside the probe's
per-component event counts, so a scheduler hotspot can be told apart
from a protocol one at a glance::

    python -m repro profile "table2/buffers=10/proto=vegas-1,3/seed=0"
    python -m repro profile many_flows/flows=1000/seed=0 --sort cumulative
    python -m repro profile figure6/seed=0 --out /tmp/fig6.pstats

A cell is named by its harness key (``experiment/k=v/...`` as printed
by ``run-all``); a key its experiment's runner would not accept is a
usage error before anything runs.  Profiled numbers are for
*relative* attribution only — cProfile itself easily halves the event
rate, so never compare them against ``bench/`` results.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from typing import Any, Dict, Optional, Sequence

from repro.errors import ReproError, exit_code

#: Sort keys accepted by ``--sort`` (pstats spellings).
SORT_KEYS = ("tottime", "cumulative", "ncalls")


def _coerce(raw: str) -> Any:
    """Cell-key value coercion: int, then float, then bool, then string."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def resolve_cell(spec: str):
    """An ``experiment/k=v/...`` key -> Cell, checked against the
    experiment's runner so a bad key fails before anything runs."""
    from repro.harness.registry import Cell, runner_signature

    experiment, *segments = spec.split("/")
    signature = runner_signature(experiment)
    usage = f"{experiment} takes " + "/".join(
        f"{name}=..." for name in signature.parameters)
    params: Dict[str, Any] = {}
    for segment in segments:
        key, eq, raw = segment.partition("=")
        if not eq:
            raise ReproError(f"bad cell key segment {segment!r} in "
                             f"{spec!r}; {usage}")
        params[key] = _coerce(raw)
    try:
        signature.bind(**params)
    except TypeError as exc:
        raise ReproError(f"bad cell key {spec!r}: {exc}; {usage}") from None
    return Cell.make(experiment, **params)


def profile_cell(cell, sort: str = "tottime", limit: int = 25,
                 out: Optional[str] = None, stream=None) -> None:
    """Run *cell* under cProfile; print stats and probe counters."""
    from repro.harness.registry import run_cell
    from repro.perf.counters import profiling

    profiler = cProfile.Profile()
    with profiling() as probe:
        cpu = time.process_time()
        profiler.enable()
        try:
            run_cell(cell)
        finally:
            profiler.disable()
        cpu = time.process_time() - cpu

    stats = pstats.Stats(profiler, stream=stream)
    if out:
        stats.dump_stats(out)
        print(f"pstats dump: {out}", file=stream)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)

    print(f"probe: {probe.events} events, peak_heap {probe.peak_heap}, "
          f"cpu {cpu:.3f}s"
          + (f" ({probe.events / cpu:,.0f} events/s under the profiler"
             " — attribution only)" if cpu > 0 else ""),
          file=stream)
    print("top components:", file=stream)
    for qualname, count in probe.top_components(10):
        print(f"  {count:>10}  {qualname}", file=stream)


def add_arguments(parser) -> None:
    parser.add_argument("cell",
                        help="harness cell key (experiment/k=v/..., as "
                             "printed by run-all)")
    parser.add_argument("--sort", choices=SORT_KEYS, default="tottime",
                        help="pstats sort key (default tottime)")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows of profile output (default 25)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also dump raw pstats data for snakeviz/pstats")
    parser.set_defaults(fn=run)


HELP = ("cProfile one cell (experiment/k=v/... key) and print "
        "hotspots plus per-component event counts")


def configure_parser(sub) -> None:
    """Attach the ``profile`` subparser to *sub* (a subparsers action)."""
    add_arguments(sub.add_parser("profile", help=HELP))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro profile", description=HELP)
    add_arguments(parser)
    return exit_code(run, parser.parse_args(argv))


def run(args) -> int:
    profile_cell(resolve_cell(args.cell), sort=args.sort, limit=args.limit,
                 out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
