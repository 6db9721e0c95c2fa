"""The front door of a sweep: one option table, one validator, one epilogue.

``run-all`` and ``search`` both end in the same call —
:func:`repro.harness.runner.run_cells` — so they share one declaration
of the flags that steer it (:func:`add_sweep_options`), one place
those flags are checked (:func:`sweep_options`, which raises
:class:`UsageError` before the first cell runs) and one object carrying
the checked values (:class:`SweepOptions`).  A verb is then "build
cells → ``opts.run(cells, progress)`` → render → ``opts.finish(report)``".

This module belongs to the command line: ``repro.harness`` does not
import it, so library users of ``run_cells`` never pay for it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.harness import artifacts, cache as cache_mod, lease, registry
from repro.harness import runner


class UsageError(ReproError):
    """A flag value no sweep can run with; the CLI exits 2 on it."""


def add_sweep_options(cmd) -> None:
    """Declare the flags every sweep verb takes."""
    cmd.add_argument("--jobs", type=int, default=None,
                     help="workers the master forks (default: cpu "
                          "count; ignored with --no-timeout)")
    cmd.add_argument("--json", metavar="PATH",
                     help="write every cell as a harness JSON artifact "
                          "(gate it with `repro check`)")
    cmd.add_argument("--no-cache", action="store_true",
                     help="ignore and do not update .repro-cache/")
    cmd.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="cache location (default: $REPRO_CACHE_DIR "
                          "or .repro-cache)")
    cmd.add_argument("--checks", nargs="?", const="raise",
                     choices=("raise", "collect"), default=False,
                     help="run with the runtime invariant checker "
                          "('raise' aborts a cell on the first "
                          "violation; 'collect' records them as the "
                          "invariant_violations metric)")
    cmd.add_argument("--timeout", type=float, metavar="SECONDS",
                     default=lease.DEFAULT_TIMEOUT_S,
                     help="per-cell wall-clock deadline under the "
                          "supervised runner (default "
                          f"{lease.DEFAULT_TIMEOUT_S:g}s); a "
                          "timed-out worker is killed, retried, and "
                          "finally quarantined into the failure "
                          "manifest; experiments that declare a "
                          "budget get the larger of the two")
    cmd.add_argument("--no-timeout", action="store_true",
                     help="run serially in this process (no deadline, "
                          "no quarantine) — crashes and hangs propagate "
                          "raw, for debugging a quarantined cell")
    cmd.add_argument("--retries", type=int, metavar="N",
                     default=lease.DEFAULT_RETRIES,
                     help="re-executions of a failed cell before it is "
                          "quarantined (default "
                          f"{lease.DEFAULT_RETRIES}; seeded "
                          "deterministic backoff between attempts)")
    cmd.add_argument("--watchdog", nargs="?", type=float,
                     metavar="STALL_SECONDS", const=True, default=False,
                     help="arm the simulation liveness watchdog: raise "
                          "a typed SimulationStalled (quarantined as "
                          "'divergence') when a cell makes zero "
                          "connection progress for STALL_SECONDS of "
                          "simulated time (default 30) or drains its "
                          "event queue mid-transfer")
    cmd.add_argument("--telemetry", metavar="PATH", default=None,
                     help="append a structured JSONL telemetry log: "
                          "sweep/cell spans, cache hits, retry and "
                          "quarantine events, plus periodic engine "
                          "gauges (cwnd/flight/queue depth); render "
                          "it with `repro report`")
    cmd.add_argument("--bind", metavar="HOST:PORT", default=None,
                     help="listen on HOST:PORT so `repro dist worker "
                          "--connect` peers can attach beside the --jobs "
                          "forked workers (--jobs 0: attach-only), with "
                          "a lease grace for the network hop")
    # What add_single_sweep_options exposes; every verb's Namespace
    # carries the attributes so sweep_options reads one shape.
    cmd.set_defaults(faults=None, chaos_kill_after=None)


def add_single_sweep_options(cmd) -> None:
    """Flags of ``run-all``, the verb that runs exactly one sweep
    (``search`` runs many rounds and takes neither)."""
    cmd.add_argument("--faults", metavar="SPEC", default=None,
                     help="inject faults: a profile name "
                          "(light/heavy/flap) or 'drop=0.01,dup=...' "
                          "(see repro.faults.FaultPlan.parse)")
    # CI fault injection: SIGKILL a busy worker after N results.
    cmd.add_argument("--chaos-kill-after", type=int, default=None,
                     help=argparse.SUPPRESS)


def split_csv(text: Optional[str]) -> List[str]:
    """``"a, b,,c"`` -> ``["a", "b", "c"]`` (``None`` -> ``[]``)."""
    return [part.strip() for part in (text or "").split(",") if part.strip()]


def require_at_least(flag: str, value: Optional[int], floor: int) -> None:
    if value is not None and value < floor:
        raise UsageError(f"{flag} must be >= {floor}, got {value}")


def require_positive(flag: str, value: float) -> None:
    # `nan <= 0` is false: a NaN deadline would pass a bare sign check
    # and then never trip any comparison.
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value}")
    if value <= 0:
        raise UsageError(f"{flag} must be positive, got {value}")


def require_writable(flag: str, path: Optional[str]) -> None:
    """Fail before the sweep, not after it, if *path* cannot be created."""
    if path is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (os.path.isdir(directory)
                                   and os.access(directory, os.W_OK)):
        raise UsageError(f"{flag}: cannot write {path!r} "
                         f"(needs a file path in a writable directory)")


@dataclass(frozen=True)
class SweepOptions:
    """Checked sweep settings; defaults mirror ``run_cells``'s."""

    jobs: Optional[int] = None
    timeout_s: Optional[float] = None
    retries: int = lease.DEFAULT_RETRIES
    checks: Any = False
    faults: Any = None
    watchdog: Any = False
    telemetry: Optional[str] = None
    cache: Optional[cache_mod.ResultCache] = None
    src_hash: str = ""
    bind: Optional[str] = None
    chaos_kill_after: Optional[int] = None
    json: Optional[str] = None

    @property
    def backend(self) -> str:
        """What the artifact records as ``run.backend``."""
        return "local" if self.bind is None else "dist"

    def run(self, cells: Sequence[registry.Cell],
            progress: Optional[Callable[[str], None]] = None,
            ) -> runner.RunReport:
        # With --bind, --jobs is the workers forked beside the attached
        # ones; under --jobs 0 a master nobody reaches degrades to the
        # cpu count (run_cells' jobs=None).
        dist_options = None
        if self.bind is not None:
            dist_options = {"workers": self.jobs if self.jobs is not None
                            else os.cpu_count() or 1,
                            "bind": self.bind,
                            "chaos_kill_after": self.chaos_kill_after}
        return runner.run_cells(
            cells, jobs=self.jobs or None, cache=self.cache,
            progress=progress, checks=self.checks, faults=self.faults,
            timeout_s=self.timeout_s, retries=self.retries,
            watchdog=self.watchdog, telemetry=self.telemetry,
            backend=self.backend, dist_options=dist_options)

    def document(self, report: runner.RunReport, mode: str) -> Dict[str, Any]:
        """The sweep's artifact, written to ``--json`` when given."""
        doc = artifacts.build_document(report, mode=mode,
                                       src_hash=self.src_hash,
                                       telemetry=self.telemetry)
        if self.json:
            artifacts.write_document(self.json, doc)
        return doc

    def finish(self, report: runner.RunReport, out=None,
               fatal: bool = True) -> int:
        """Print the closing lines to *out*; return the exit code.

        130 = interrupted, 3 = cells quarantined, 1 = invariant
        violations collected, 0 = clean.  ``fatal=False`` is for a
        caller that survives quarantined cells (``search`` scores what
        is left): they are listed but do not decide the exit code.
        """
        out = out or sys.stdout
        failed = len(report.failures)
        if failed:
            print((f"\nFAILED: {failed} cell(s) quarantined (exit 3; "
                   if fatal else f"quarantined cells: {failed} (")
                  + "reproduce with `run-all --only <key> --no-timeout`):",
                  file=out)
            for failure in report.failures:
                print(f"  {failure.key} [{failure.kind}] "
                      f"after {failure.attempts} attempt(s): "
                      f"{failure.message}", file=out)
        code = 3 if failed and fatal else 0
        if self.checks:
            violations = sum(int(r.metrics.get("invariant_violations", 0.0))
                             for r in report.results)
            print(f"invariant violations: {violations}", file=out)
            if violations and not failed:
                code = 1
        if self.json:
            print(f"JSON artifact: {self.json}", file=out)
        if self.telemetry:
            print(f"telemetry: {self.telemetry}", file=out)
        if report.interrupted:
            # Every requested cell was counted as a cache hit or a miss.
            print(f"\nINTERRUPTED: sweep drained with "
                  f"{len(report.results) + failed}/"
                  f"{report.cache_hits + report.cache_misses} cells "
                  "settled; partial artifact and failure manifest flushed "
                  "(exit 130)", file=out)
            if self.cache is not None:
                print("completed cells are cached: re-running the same "
                      "command executes only the rest", file=out)
            code = 130
        return code


def sweep_options(args) -> SweepOptions:
    """Validate a parsed sweep Namespace into :class:`SweepOptions`.

    Everything that can be refused is refused here, before any cell
    runs: a sweep that dies on its last line loses the work.
    """
    # With --bind, --jobs 0 is a master that only waits for attachers.
    require_at_least("--jobs", args.jobs, 0 if args.bind else 1)
    require_at_least("--retries", args.retries, 0)
    timeout_s = None if args.no_timeout else args.timeout
    if timeout_s is not None:
        require_positive("--timeout", timeout_s)
    if args.watchdog is not False and args.watchdog is not True:
        require_positive("--watchdog", args.watchdog)
    faults = registry.resolve_faults(args.faults)
    require_writable("--json", args.json)
    require_writable("--telemetry", args.telemetry)

    src_hash = cache_mod.compute_src_hash()
    cache = None
    if not args.no_cache:
        cache = cache_mod.ResultCache(
            args.cache_dir or cache_mod.default_cache_dir(), src_hash)
        cache.prepare()
    return SweepOptions(
        jobs=args.jobs, timeout_s=timeout_s, retries=args.retries,
        checks=args.checks, faults=faults, watchdog=args.watchdog,
        telemetry=args.telemetry, cache=cache, src_hash=src_hash,
        bind=args.bind, chaos_kill_after=args.chaos_kill_after,
        json=args.json)


def counting_progress(total: int) -> Callable[[str], None]:
    """A ``[n/total] line`` printer for stderr.

    Only lines that settle a cell advance the counter, so it ends at
    exactly *total*: retry notices and dist lifecycle notices (worker
    loss, chaos, degrade banners) are passed through uncounted.
    """
    informational = ("worker ", "chaos:", "warning:", "dist master")
    done = [0]

    def progress(line: str) -> None:
        if "retrying in" not in line and not line.startswith(informational):
            done[0] += 1
        print(f"[{done[0]}/{total}] {line}", file=sys.stderr)

    return progress
