"""Regression gate: compare a sweep artifact against a baseline.

::

    python -m repro check results.json baselines/expected.json \
        --tolerance 0.15

Every cell in the baseline must be present in the results, and every
baseline metric must match within the relative tolerance.  Cells only
present in the results (new experiments) are reported but do not fail
the check — baselines are ratcheted forward by regenerating them, not
by blocking additions.

Exit codes: 0 = within tolerance, 1 = drift/missing cells,
2 = unreadable or schema-incompatible input, 3 = the results artifact
carries quarantined cells (its ``failures`` manifest names baseline
cells that never produced metrics).  Execution failures are a
different condition from metric drift — the cell did not run to
completion at all — so CI can route them to different owners.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.harness.artifacts import load_document


def _within(actual: float, expected: float, tolerance: float) -> bool:
    # Relative tolerance with an absolute floor of one unit, so
    # near-zero expectations (0 coarse timeouts) do not demand
    # infinite precision but cannot drift far either.
    return abs(actual - expected) <= tolerance * max(1.0, abs(expected))


def compare(results: Dict[str, Any], expected: Dict[str, Any],
            tolerance: float) -> List[str]:
    """All tolerance violations of *results* against *expected*."""
    problems: List[str] = []
    actual_cells = {c["key"]: c for c in results["cells"]}
    expected_cells = {c["key"]: c for c in expected["cells"]}

    missing = sorted(set(expected_cells) - set(actual_cells))
    for key in missing:
        problems.append(f"missing cell: {key}")

    for key in sorted(set(expected_cells) & set(actual_cells)):
        want = expected_cells[key].get("metrics", {})
        got = actual_cells[key].get("metrics", {})
        for metric in sorted(want):
            if metric not in got:
                problems.append(f"{key}: metric {metric} missing")
                continue
            w, g = want[metric], got[metric]
            if not _within(g, w, tolerance):
                problems.append(
                    f"{key}: {metric} = {g:g}, expected {w:g} "
                    f"(tolerance {tolerance:g})")
    return problems


def extra_cells(results: Dict[str, Any], expected: Dict[str, Any]) -> List[str]:
    """Cell keys present in *results* but absent from the baseline."""
    have = {c["key"] for c in expected["cells"]}
    return sorted(c["key"] for c in results["cells"] if c["key"] not in have)


def failed_cells(results: Dict[str, Any],
                 expected: Dict[str, Any]) -> List[str]:
    """Execution failures of *results* that cover baseline cells.

    One line per quarantined baseline cell, naming its failure kind —
    these dominate plain drift (the cell produced no metrics to
    compare) and map to exit code 3.
    """
    baseline_keys = {c["key"] for c in expected["cells"]}
    lines = []
    for failure in results.get("failures", []) or []:
        if failure.get("key") in baseline_keys:
            lines.append(
                f"failed cell: {failure['key']} "
                f"[{failure.get('kind', '?')}] after "
                f"{failure.get('attempts', '?')} attempt(s): "
                f"{failure.get('message', '')}")
    return sorted(lines)


HELP = ("gate a run-all/arena/search JSON artifact against a committed "
        "baseline (exit 1 = drift, 3 = quarantined cells)")


def configure_parser(sub) -> None:
    """Attach the ``check`` subparser to *sub* (a subparsers action)."""
    parser = sub.add_parser("check", help=HELP)
    parser.add_argument("results",
                        help="artifact from run-all/arena/search --json")
    parser.add_argument("expected", help="committed baseline artifact")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="relative tolerance per metric (default 0.15)")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="append the gate verdict to this telemetry "
                             "JSONL (same file run-all --telemetry wrote)")
    parser.set_defaults(fn=run)


def run(args) -> int:
    results = load_document(args.results)
    expected = load_document(args.expected)

    failures = failed_cells(results, expected)
    failed_keys = {f.get("key") for f in results.get("failures", []) or []}
    problems = compare(results, expected, args.tolerance)
    # A quarantined cell is necessarily missing from the results array;
    # report it once, as a failure, not again as drift.
    problems = [p for p in problems
                if not (p.startswith("missing cell: ")
                        and p[len("missing cell: "):] in failed_keys)]
    new = extra_cells(results, expected)
    if new:
        print(f"note: {len(new)} cell(s) not in baseline "
              "(regenerate the baseline to track them):")
        for key in new[:10]:
            print(f"  + {key}")
        if len(new) > 10:
            print(f"  ... and {len(new) - 10} more")

    checked = len(expected["cells"])
    if failures:
        print(f"FAIL: {len(failures)} baseline cell(s) quarantined by the "
              "supervised runner (exit 3; reproduce with "
              "`run-all --only <key> --no-timeout`):")
        for line in failures:
            print(f"  {line}")
    if problems:
        print(f"FAIL: {len(problems)} problem(s) across {checked} "
              "baseline cell(s):")
        for problem in problems:
            print(f"  {problem}")
    code = 3 if failures else (1 if problems else 0)
    if args.telemetry is not None:
        from repro.obs.events import TelemetrySink

        with TelemetrySink(args.telemetry, run_id="gate") as sink:
            sink.emit("gate", exit_code=code, checked=checked,
                      drift=len(problems), quarantined=len(failures),
                      tolerance=args.tolerance)
    if code == 0:
        print(f"OK: {checked} cell(s) within tolerance {args.tolerance:g}")
    return code
