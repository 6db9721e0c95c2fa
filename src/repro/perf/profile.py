"""``python -m repro profile``: cProfile one harness cell.

The bench suite answers *whether* the engine got slower; this command
answers *where the time goes*.  It runs a single cell under
:mod:`cProfile` with a :class:`~repro.perf.counters.PerfProbe`
attached and prints the hottest functions alongside the probe's
per-component event counts, so a scheduler hotspot can be told apart
from a protocol one at a glance::

    python -m repro profile table2_background
    python -m repro profile many_flows_1000 --sort cumulative --limit 40
    python -m repro profile "table2/proto=reno/buffers=20/seed=3"
    python -m repro profile figure6 --out /tmp/fig6.pstats

Cells are named either by their bench-suite alias (``figure6``,
``table2_background``, ``many_flows_500``, ...) or by a full harness
cell key (``experiment/k=v/...`` as printed by ``run-all``).  Profiled
numbers are for *relative* attribution only — the tracer overhead of
cProfile itself easily halves events/sec, so never compare them
against bench gates.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import Any, Dict, Optional, Sequence

from repro.errors import ReproError, exit_code

#: Sort keys accepted by ``--sort`` (pstats spellings).
SORT_KEYS = ("tottime", "cumulative", "ncalls")


def _coerce(raw: str) -> Any:
    """Cell-key value coercion: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw in ("True", "False"):
        return raw == "True"
    return raw


def resolve_cell(spec: str):
    """A bench-suite alias or ``experiment/k=v/...`` key -> Cell."""
    from repro.perf.bench import bench_suite

    for descriptor in bench_suite():
        if descriptor["name"] == spec:
            return descriptor["cell"]
    from repro.harness.registry import Cell

    parts = spec.split("/")
    experiment = parts[0]
    params: Dict[str, Any] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ReproError(
                f"bad cell key segment {part!r} in {spec!r} "
                "(want experiment/k=v/... or a bench cell name)")
        key, _, raw = part.partition("=")
        params[key] = _coerce(raw)
    if not params:
        raise ReproError(
            f"unknown bench cell {spec!r} and no k=v params given; "
            "known bench cells: "
            + ", ".join(d["name"] for d in bench_suite()))
    return Cell.make(experiment, **params)


def profile_cell(cell, sort: str = "tottime", limit: int = 25,
                 out: Optional[str] = None, stream=sys.stdout) -> None:
    """Run *cell* under cProfile; print stats and probe counters."""
    from repro.harness.registry import run_cell
    from repro.perf.counters import profiling

    profiler = cProfile.Profile()
    with profiling() as probe, probe.phase("run"):
        profiler.enable()
        run_cell(cell)
        profiler.disable()

    stats = pstats.Stats(profiler, stream=stream)
    if out:
        stats.dump_stats(out)
        print(f"pstats dump: {out}", file=stream)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)

    cpu = probe.cpu_phases.get("run", 0.0)
    print(f"probe: {probe.events} events, peak_heap {probe.peak_heap}, "
          f"cpu {cpu:.3f}s"
          + (f" ({probe.events / cpu:,.0f} events/s under the profiler"
             " — attribution only, not comparable to bench)" if cpu > 0
             else ""),
          file=stream)
    print("top components:", file=stream)
    for qualname, count in probe.top_components(10):
        print(f"  {count:>10}  {qualname}", file=stream)


def add_arguments(parser) -> None:
    parser.add_argument("cell",
                        help="bench cell name (table2_background, "
                             "many_flows_1000, ...) or full cell key "
                             "(experiment/k=v/...)")
    parser.add_argument("--sort", choices=SORT_KEYS, default="tottime",
                        help="pstats sort key (default tottime)")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows of profile output (default 25)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also dump raw pstats data for snakeviz/pstats")
    parser.set_defaults(fn=run)


HELP = ("cProfile one cell (bench name or experiment/k=v/... key) and "
        "print hotspots plus per-component event counts")


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
