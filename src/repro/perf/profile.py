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

import cProfile
import pstats
import time
from typing import Any, Dict, Optional

from repro.errors import ReproError

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


#: The value types a key segment may coerce to, per annotated type.
_ACCEPTS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def resolve_cell(spec: str):
    """An ``experiment/k=v/...`` key -> Cell, checked against the
    experiment's runner (its parameters and their annotated types) so
    a bad key fails before anything runs."""
    import inspect
    import typing

    from repro.harness.registry import Cell, experiment

    name, *segments = spec.split("/")
    run = experiment(name).run
    signature = inspect.signature(run)
    usage = f"{name} takes " + "/".join(
        f"{param}=..." for param in signature.parameters)
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
    hints = typing.get_type_hints(run)
    for key, value in params.items():
        accepted = _ACCEPTS.get(hints.get(key))
        if accepted is not None and type(value) not in accepted:
            raise ReproError(f"bad cell key {spec!r}: {key} must be "
                             f"{hints[key].__name__}, got {value!r}; {usage}")
    return Cell.make(name, **params)


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


HELP = ("cProfile one cell (experiment/k=v/... key) and print "
        "hotspots plus per-component event counts")


def configure_parser(sub) -> None:
    """Attach the ``profile`` subparser to *sub* (a subparsers action)."""
    parser = sub.add_parser("profile", help=HELP)
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


def run(args) -> int:
    profile_cell(resolve_cell(args.cell), sort=args.sort, limit=args.limit,
                 out=args.out)
    return 0
