"""Command-line interface: ``python -m repro <verb>`` is the entry point.

The verbs (``python -m repro list`` prints them; each takes ``-h``)::

    python -m repro list
    python -m repro solo --cc vegas-1,3 --size-kb 512 --buffers 15
    python -m repro run-all --quick --jobs 4 --json results.json
    python -m repro run-all --experiments table2,telnet --seeds 4
    python -m repro run-all --experiments figure6 --seed 1
    python -m repro run-all --only table4/proto=reno/seed=0 --no-timeout
    python -m repro run-all --quick --jobs 4 --bind 0.0.0.0:7077
    python -m repro dist worker --connect 127.0.0.1:7077
    python -m repro run-all --experiments arena --seeds 3 --json arena.json
    python -m repro traces --scenario lte --seed 0
    python -m repro check r.json baselines/expected.json --tolerance 0.15
    python -m repro report r.json --telemetry run.jsonl
    python -m repro profile figure6/seed=0 --sort tottime

This module only dispatches: every verb is declared, once, by the
``configure_parser(sub)`` of the package that implements it, and the
flags the sweep verbs share live in :mod:`repro.harness.options`.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.errors import exit_code


def build_parser() -> argparse.ArgumentParser:
    from repro.arena import command as traces
    from repro.experiments import command as paper
    from repro.harness import check, command as sweeps
    from repro.obs import report
    from repro.perf import profile

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from the TCP Vegas paper "
                    "(Brakmo, O'Malley & Peterson, SIGCOMM 1994).")
    sub = parser.add_subparsers(dest="command", required=True)
    for module in (paper, sweeps, traces, check, report, profile):
        module.configure_parser(sub)
    # `list` prints the verbs from here, so it cannot drift.
    parser.set_defaults(_subcommands=tuple(sub.choices))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(args.fn, args)
