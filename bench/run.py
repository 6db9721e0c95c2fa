"""The repo benchmark: one command, every metric by name.

Driver form (one workload in this process; the last stdout line is the
result object)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set form (each workload in its own subprocess, end to end then traced;
prints every metric and appends the run to ``bench/history.jsonl``)::

    python3 bench/run.py --seed 0
    python3 bench/run.py --seed 0 --repeat-check
    python3 bench/run.py --smoke

See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH,
    OUT,
    ROOT,
    Spans,
    forbidden_env,
    host_record,
)

sys.path.insert(0, str(ROOT / "src"))

SPEC_PATH = ROOT / "BENCHMARK.json"
HISTORY_PATH = BENCH / "history.jsonl"

#: Pinned seed-0 engine events, cross-checked when expected.json is
#: regenerated: bench workload name -> ``repro bench`` cell name.
BENCH_BASELINE_NAMES = {"bulk_background": "table2_background",
                        "many_flows_1000": "many_flows_1000"}

#: Per-layer metrics that are counts of a deterministic simulation and
#: must repeat exactly; ``trace.self_share.*`` may move this much.
EXACT_METRICS = ("trace.events", "trace.peak_heap", "trace.far_events_peak",
                 "net.queue.drop_share")
EXACT_PREFIX = "trace.events_share."
SELF_SHARE_PREFIX = "trace.self_share."
SELF_SHARE_TOLERANCE = 0.02

#: Profiled calls repeat exactly on the engine workloads; over a sweep's
#: 46 topologies the count has been seen to move by 138 in 11.4 million
#: (sets of node objects iterate in address order), so it is held to a
#: relative tolerance instead.
CALLS_METRIC = "trace.py_calls_per_event"
CALLS_TOLERANCE = 1e-4

#: A pair of sets that disagrees on a noisy host is measured again this
#: many times before the disagreement stands.
NOISY_RERUNS = 2


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Driver form: one workload, in this process
# ----------------------------------------------------------------------

def setup_probe(args: argparse.Namespace) -> float:
    """Wall of one fresh interpreter that only sets the workload up.

    Interpreter start, ``import repro``, registry, ``compute_src_hash``
    and the workload's inputs; the warm-up round is not part of it.
    """
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    start = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_workload(args: argparse.Namespace) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.Inputs(workload, args.seed, smoke=args.smoke)
        return 0
    if args.trace:
        result = run_traced(args, workload)
    else:
        inputs = workloads.Inputs(workload, args.seed, smoke=args.smoke)
        seconds = 0.0 if args.smoke else args.seconds
        result = workloads.run_end_to_end(inputs, seconds,
                                          lambda: setup_probe(args))
    info = result.pop("info")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_traced(args: argparse.Namespace, workload) -> Dict[str, Any]:
    import layers
    import ledger
    import workloads

    spans = Spans()
    inputs = workloads.Inputs(workload, args.seed, smoke=args.smoke)
    cache = inputs.fresh_cache()
    try:
        spans.new_round()
        with spans.span("reference"):
            reference, _, failed = workloads.reference_round(inputs, cache)
    finally:
        workloads.drop_cache(cache)
    metrics, table, attempted, more_failed = ledger.measure_ledger(
        inputs, spans, reference, quick=args.smoke)
    isolated: Dict[str, tuple] = {}
    if not args.skip_layers:
        rounds = (1, 1) if args.smoke else (layers.ROUNDS,
                                            layers.PROCESS_ROUNDS)
        isolated = layers.measure_layers(spans, *rounds)
        metrics.update(isolated)
    spans.write(OUT / f"spans-{workload.name}-seed{args.seed}.json", table)
    failed += more_failed
    return {
        "correct": failed == 0,
        "attempted": attempted + len(inputs.cells),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
        "info": {"workload": workload.name, "seed": args.seed,
                 "spans": len(spans.rows), "layers": sorted(isolated)},
    }


# ----------------------------------------------------------------------
# Set form: every workload, each in its own subprocess
# ----------------------------------------------------------------------

def child(workload: str, seed: int, seconds: int, trace: int,
          extra: List[str]) -> Dict[str, Any]:
    """Run one driver-form subprocess; its result with ``info`` merged."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + extra
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{done.returncode} without a result")
    result = json.loads(lines[-1])
    result["info"] = next((json.loads(line[5:]) for line in lines
                           if line.startswith("info ")), {})
    return result


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_set(spec: Dict[str, Any], seed: int, smoke: bool) -> Dict[str, Any]:
    """One full set: end-to-end then traced, workload by workload.

    The isolated micro-benches do not depend on the workload, so they
    run once per set, with the first workload's traced pass.  A smoke
    set checks names, not speed, so it runs two workloads at a time.
    """
    extra = ["--smoke"] if smoke else []
    names = [w["name"] for w in spec["workloads"]]

    def measure(name: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        print(f"# {name}", file=sys.stderr)
        skip = [] if name == names[0] else ["--skip-layers"]
        return (child(name, seed, spec["run_seconds"], 0, extra),
                child(name, seed, spec["run_seconds"], 1, extra + skip))

    if smoke:
        with ThreadPoolExecutor(max_workers=2) as pool:
            measured = list(pool.map(measure, names))
    else:
        measured = [measure(name) for name in names]

    record: Dict[str, Any] = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": seed,
        "src_hash": measured[0][0]["info"]["src_hash"],
        "run_seconds": spec["run_seconds"],
        "end_to_end": {}, "per_layer": {}, "failed_share": {}, "timing": {},
    }
    spins: List[float] = []
    for name, (plain, traced) in zip(names, measured):
        info = plain["info"]
        record["end_to_end"][name] = plain["metrics"]
        record["per_layer"][name] = traced["metrics"]
        record["timing"][name] = {"cold_s": info["cold_s"],
                                  "warm_s": info["warm_s"]}
        attempted = plain["attempted"] + traced["attempted"]
        record["failed_share"][name] = (
            (plain["failed"] + traced["failed"]) / attempted)
        spins.extend(info["spins_ms"])
    first = record["per_layer"][names[0]]
    record["layers"] = {metric: first.pop(metric)
                        for metric in measured[0][1]["info"]["layers"]}
    record["host"] = host_record(spins)
    return record


def _timing_note(summary: Dict[str, Any]) -> str:
    note = f"n={summary['n']}, median={summary['median'] * 1e3:.2f} ms"
    tail = summary["tail"]
    if tail is None:
        return note + ", no tail percentile (<20 samples)"
    return note + f", p{tail['percentile']}={tail['value'] * 1e3:.2f} ms"


def print_set(spec: Dict[str, Any], record: Dict[str, Any]) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    series = {"events_per_s": "cold_s", "cold_cells_per_s": "cold_s",
              "warm_cells_per_s": "warm_s"}
    host = record["host"]
    print(f"host: spin {host['host.spin_ms_median']:.1f} ms median, "
          f"IQR/median {host['host.spin_iqr_ratio']:.3f}"
          f"{' (noisy)' if host['noisy'] else ''}; nproc {record['nproc']}, "
          f"python {record['python']}, commit {record['commit']}")
    print("\nend to end (tracing off; rates from the calm twentieth of "
          "their timings, setup_s a median)")
    for name, metrics in record["end_to_end"].items():
        for metric, body in metrics.items():
            note = ""
            if metric in series:
                timing = record["timing"][name][series[metric]]
                note = f"  [{_timing_note(timing)}]"
            print(f"  {name:18s} {metric:18s} {body['value']:14.4f} "
                  f"{body['unit']:9s} bound {bounds[metric]:.2f}{note}")
        print(f"  {name:18s} {'failed_share':18s} "
              f"{record['failed_share'][name]:14.4f}")
    print("\nper layer: isolated micro-benches")
    for metric, body in record["layers"].items():
        print(f"  {metric:40s} {body['value']:16.4f} {body['unit']}")
    print("\nper layer: traced pass of each workload")
    for name, metrics in record["per_layer"].items():
        for metric, body in metrics.items():
            print(f"  {name:18s} {metric:40s} {body['value']:16.4f} "
                  f"{body['unit']}")
    print("\nreading the ledger: a module with self share s on a workload "
          "caps a k-fold speed-up of that\nmodule at 1/(1 - s(1 - 1/k)) on "
          "events_per_s (tcp.connection at 0.30: at most 1.43x even if "
          "free);\ncold_cells_per_s = cells / (sum of cell time / jobs + "
          "harness overhead).")


def full_set(spec: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Measure, print and append one set to the committed history."""
    record = run_set(spec, seed, smoke=False)
    print_set(spec, record)
    with open(HISTORY_PATH, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def compare_sets(spec: Dict[str, Any], first: Dict[str, Any],
                 second: Dict[str, Any]) -> List[str]:
    """Print both sets side by side; what disagrees beyond its bound."""
    problems = []
    print("\nrepeat check (two sets of the same commit)")
    for metric in spec["end_to_end"]:
        for name in first["end_to_end"]:
            a = first["end_to_end"][name][metric["name"]]["value"]
            b = second["end_to_end"][name][metric["name"]]["value"]
            diff = abs(b - a) / a
            flag = "" if diff <= metric["bound"] else "  EXCEEDS BOUND"
            print(f"  {name:18s} {metric['name']:18s} {a:14.4f} {b:14.4f} "
                  f"diff {diff:6.3f} bound {metric['bound']:.2f}{flag}")
            if flag:
                problems.append(f"{name}/{metric['name']}")
    pairs = [("layers", first["layers"], second["layers"])]
    pairs += [(name, first["per_layer"][name], second["per_layer"][name])
              for name in first["per_layer"]]
    for name, ours, theirs in pairs:
        for metric, body in ours.items():
            a, b = body["value"], theirs[metric]["value"]
            exact = metric in EXACT_METRICS or metric.startswith(EXACT_PREFIX)
            if exact and a != b:
                problems.append(f"{name}/{metric} not identical: {a} vs {b}")
            elif (metric == CALLS_METRIC
                  and abs(a - b) > CALLS_TOLERANCE * a):
                problems.append(f"{name}/{metric} moved: {a} vs {b}")
            elif (metric.startswith(SELF_SHARE_PREFIX)
                  and abs(a - b) > SELF_SHARE_TOLERANCE):
                problems.append(f"{name}/{metric} moved {abs(a - b):.3f}")
    if failed_any(first) or failed_any(second):
        problems.append("failed_share above 0")
    return problems


def failed_any(record: Dict[str, Any]) -> bool:
    return any(share > 0 for share in record["failed_share"].values())


def repeat_check(spec: Dict[str, Any], seed: int) -> int:
    """Two sets back to back must agree within every bound.

    The noisy label is not a waiver: a pair that disagrees while either
    set reads noisy is measured again, and still has to agree.
    """
    for attempt in range(NOISY_RERUNS + 1):
        first = full_set(spec, seed)
        second = full_set(spec, seed)
        problems = compare_sets(spec, first, second)
        noisy = first["host"]["noisy"] or second["host"]["noisy"]
        if not problems or not noisy or attempt == NOISY_RERUNS:
            break
        print(f"sets disagree on a noisy host (attempt {attempt + 1}); "
              "measuring again", file=sys.stderr)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("OK: both sets agree within every bound; exact metrics "
              "identical")
    return 1 if problems else 0


def smoke(spec: Dict[str, Any], seed: int) -> int:
    """One round of everything; emitted names must equal declared ones."""
    import workloads

    record = run_set(spec, seed, smoke=True)
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    for kind, runs in (("end_to_end", record["end_to_end"]),
                       ("per_layer", record["per_layer"])):
        declared = {(m["name"], m["unit"]) for m in spec[kind]}
        for name, metrics in runs.items():
            if kind == "per_layer":
                metrics = {**record["layers"], **metrics}
            emitted = {(m, body["unit"]) for m, body in metrics.items()}
            if emitted != declared:
                problems.append(f"{name} {kind} differs from BENCHMARK.json: "
                                f"{sorted(emitted ^ declared)}")
    if failed_any(record):
        problems.append(f"failed_share above 0: {record['failed_share']}")
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print(f"OK: {len(spec['workloads'])} workloads, "
              f"{len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics emitted as "
              "declared")
    return 1 if problems else 0


def pin_expected() -> int:
    """Regenerate ``bench/expected.json`` from seed-0 engine runs."""
    import workloads

    from repro.harness import run_cell

    with open(ROOT / "baselines" / "bench_baseline.json") as handle:
        baseline = json.load(handle)["cells"]
    cells = {}
    for name, bench_name in BENCH_BASELINE_NAMES.items():
        (cell,) = workloads.WORKLOADS[name].make_cells(0)
        metrics = run_cell(cell)
        want = baseline[bench_name]["events"]
        if metrics["events_processed"] != want:
            print(f"error: {cell.key} ran {metrics['events_processed']} "
                  f"events, baselines/bench_baseline.json says {want}",
                  file=sys.stderr)
            return 1
        cells[cell.key] = metrics
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump({"cells": cells}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(cells)} cells in {workloads.EXPECTED_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two full sets; fail when they disagree "
                             "by more than a bound")
    parser.add_argument("--smoke", action="store_true",
                        help="one short round of everything; check emitted "
                             "names against BENCHMARK.json")
    parser.add_argument("--pin-expected", action="store_true",
                        help="regenerate bench/expected.json")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--skip-layers", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    toggles = forbidden_env()
    if toggles:
        print(f"error: refusing to measure with {', '.join(toggles)} set: "
              "these change engine behaviour", file=sys.stderr)
        return 2
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.pin_expected:
        return pin_expected()
    if args.workload is not None:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            print(f"error: unknown workload {args.workload!r}",
                  file=sys.stderr)
            return 2
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        return run_workload(args)
    if args.smoke:
        return smoke(spec, args.seed)
    if args.repeat_check:
        return repeat_check(spec, args.seed)
    return 1 if failed_any(full_set(spec, args.seed)) else 0


if __name__ == "__main__":
    sys.exit(main())
