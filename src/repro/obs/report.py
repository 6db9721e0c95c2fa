"""Render a Markdown run report from a sweep artifact + telemetry.

::

    python -m repro report results.json --telemetry run.jsonl --top 5

The report is the human-readable face of a ``run-all`` sweep: per-cell
timings by experiment, cache-hit ratio, the failure taxonomy from the
quarantine manifest, the top-N slowest cells, and the paper's headline
comparison (Vegas vs Reno throughput/retransmissions) pulled from the
cell metrics.  When a telemetry JSONL (``--telemetry``, written by
``run-all --telemetry``) is given, the report adds event counts, span
durations for the harness phases, and a gauge digest (samples, peak
queue depths, drops).

Exit codes: 0 = rendered, 2 = unreadable or schema-invalid input —
which is what the CI smoke step gates on.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Sequence


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def markdown_table(headers: Sequence[str],
                   rows: Sequence[Sequence[Any]]) -> List[str]:
    """Render a GitHub-style Markdown table (lines, no trailing \n).

    Shared by the run report and the arena league tables
    (:mod:`repro.arena.league`).
    """
    cells = [[str(h) for h in headers]] + [[str(c) for c in row]
                                           for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    def fmt(row):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
    lines = [fmt(cells[0]),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt(row) for row in cells[1:])
    return lines


def _proto_of(params: Dict[str, Any]) -> Optional[str]:
    """The congestion-control family of a cell, if it names one."""
    value = params.get("proto") or params.get("cc")
    if not isinstance(value, str):
        return None
    if value.startswith("reno"):
        return "reno"
    if value.startswith("vegas"):
        return "vegas"
    return None


def _headline(cells: List[Dict[str, Any]]) -> List[str]:
    """Vegas-vs-Reno comparison per experiment, from cell metrics."""
    by_exp: Dict[str, Dict[str, Dict[str, List[float]]]] = \
        defaultdict(lambda: {"reno": defaultdict(list),
                             "vegas": defaultdict(list)})
    for cell in cells:
        family = _proto_of(cell.get("params", {}))
        if family is None:
            continue
        buckets = by_exp[cell["experiment"]][family]
        for metric in ("throughput_kbps", "retransmit_kb",
                       "mean_response_s"):
            if metric in cell.get("metrics", {}):
                buckets[metric].append(cell["metrics"][metric])
    rows = []
    for exp in sorted(by_exp):
        reno, vegas = by_exp[exp]["reno"], by_exp[exp]["vegas"]
        for metric in ("throughput_kbps", "retransmit_kb",
                       "mean_response_s"):
            if not reno.get(metric) or not vegas.get(metric):
                continue
            r, v = _mean(reno[metric]), _mean(vegas[metric])
            # A zero reference has no meaningful ratio; ``float("inf")``
            # would also serialise as non-compliant ``Infinity`` when the
            # rows land in JSON artifacts, so emit None and render "n/a".
            ratio = v / r if r else None
            rows.append([exp, metric, f"{r:.1f}", f"{v:.1f}",
                         f"{ratio:.2f}x" if ratio is not None else "n/a"])
    if not rows:
        return ["(no cells carry a reno/vegas protocol parameter)"]
    return markdown_table(["experiment", "metric", "reno mean", "vegas mean",
                   "vegas/reno"], rows)


def _dist_timings(events: Sequence[Dict[str, Any]]) -> List[str]:
    """The master's two latencies, derived from event times:
    start-up, and how long a worker that ended a cell sat idle."""
    start, joins, gaps = None, [], []
    ended: Dict[str, float] = {}
    for event in events:
        name, worker = event["event"], event.get("worker")
        if name == "dist.start":
            start, joins = event, []
        elif name == "dist.worker.join":
            joins.append(event["ts"])
        elif name == "cell.end" and worker:
            ended[worker] = event["ts"]
        elif name == "dist.lease.grant" and worker in ended:
            gaps.append(1e3 * (event["ts"] - ended.pop(worker)))
    lines = []
    if start is not None and joins:
        # Respawns join later; start-up is the initial set.
        joined = joins[:start.get("workers") or None][-1]
        lines.append(f"- startup (`dist.start` → last initial worker "
                     f"joined): {1e3 * (joined - start['ts']):.0f} ms")
    if gaps:
        lines.append(f"- result → next grant, per worker: mean "
                     f"{_mean(gaps):.1f} ms, max {max(gaps):.1f} ms "
                     f"({len(gaps)} grants)")
    return lines


def _worker_section(cells: List[Dict[str, Any]],
                    events: Optional[List[Dict[str, Any]]]) -> List[str]:
    """Per-worker provenance of a dist run, from the artifact's
    ``worker``/``attempts`` fields, plus worker-loss reasons from the
    ``dist.worker.lost`` telemetry events when a JSONL was recorded."""
    lines: List[str] = []
    by_worker: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for cell in cells:
        if cell.get("worker"):
            by_worker[cell["worker"]].append(cell)
    if by_worker:
        rows = []
        for worker in sorted(by_worker):
            executed = by_worker[worker]
            walls = [c.get("wall_clock_s", 0.0) for c in executed]
            retried = sum(1 for c in executed if c.get("attempts", 1) > 1)
            rows.append([worker, len(executed), retried,
                         f"{sum(walls):.2f}", f"{max(walls):.2f}"])
        lines.append("### Per-worker cells")
        lines.append("")
        lines.extend(markdown_table(
            ["worker", "cells", "retried", "total s", "max s"], rows))
    reasons: Dict[str, int] = defaultdict(int)
    for event in events or ():
        if event["event"] == "dist.worker.lost":
            reasons[event.get("reason", "?")] += 1
    bullets = [f"- worker loss `{reason}`: {reasons[reason]}"
               for reason in sorted(reasons)] + _dist_timings(events or ())
    if bullets:
        lines.append("")
        lines.extend(bullets)
    if not lines:
        lines.append("(no per-worker provenance recorded)")
    return lines


#: Scheduler counters, label -> telemetry event, all emitted by the
#: master (``--jobs`` and ``--backend dist`` alike).
_COUNTERS = {
    "attempts retried": "cell.retry",
    "cells quarantined": "cell.quarantine",
    "workers joined": "dist.worker.join",
    "workers lost": "dist.worker.lost",
    "workers respawned": "dist.worker.respawn",
    "leases granted": "dist.lease.grant",
    "leases expired": "dist.lease.expire",
    "stale results dropped": "dist.stale",
    "degraded to local workers": "dist.degrade",
}


def _counter_rows(events: List[Dict[str, Any]]) -> List[List[Any]]:
    counts = Counter(event["event"] for event in events)
    return [[label, counts[name]] for label, name in _COUNTERS.items()
            if counts[name]]


def _telemetry_section(events: List[Dict[str, Any]]) -> List[str]:
    lines: List[str] = []
    counts: Dict[str, int] = defaultdict(int)
    for event in events:
        counts[event["event"]] += 1
    lines.append("### Event counts")
    lines.append("")
    lines.extend(markdown_table(["event", "count"],
                        [[name, counts[name]] for name in sorted(counts)]))
    spans = [e for e in events
             if e["event"].endswith(".end") and "duration_s" in e]
    if spans:
        by_name: Dict[str, List[float]] = defaultdict(list)
        for span in spans:
            by_name[span["event"][:-len(".end")]].append(span["duration_s"])
        lines.append("")
        lines.append("### Span durations")
        lines.append("")
        lines.extend(markdown_table(
            ["span", "count", "total s", "mean s", "max s"],
            [[name, len(d), f"{sum(d):.3f}", f"{_mean(d):.3f}",
              f"{max(d):.3f}"] for name, d in sorted(by_name.items())]))
    gauges = [e for e in events if e["event"] == "gauge"]
    if gauges:
        depth_peak: Dict[str, int] = defaultdict(int)
        drops_last: Dict[str, int] = {}
        rates = [g["events_per_sec"] for g in gauges
                 if g.get("events_per_sec")]
        for gauge in gauges:
            for queue in gauge.get("queues", ()):
                depth_peak[queue["name"]] = max(depth_peak[queue["name"]],
                                                queue.get("max_depth",
                                                          queue["depth"]))
                drops_last[queue["name"]] = queue.get("drops", 0)
        lines.append("")
        lines.append("### Gauges")
        lines.append("")
        median_rate = (f", median engine rate "
                       f"~{sorted(rates)[len(rates) // 2]:,.0f} events/s"
                       if rates else "")
        lines.append(f"- {len(gauges)} samples{median_rate}")
        for name in sorted(depth_peak):
            lines.append(f"- queue `{name}`: peak depth {depth_peak[name]}, "
                         f"{drops_last[name]} drops")
    return lines


def render_report(doc: Dict[str, Any],
                  events: Optional[List[Dict[str, Any]]] = None,
                  top: int = 10) -> str:
    """Render the Markdown report for one sweep artifact."""
    run = doc.get("run", {})
    cells = doc["cells"]
    failures = doc.get("failures", []) or []
    hits = run.get("cache_hits", 0)
    misses = run.get("cache_misses", 0)
    total_lookups = hits + misses
    hit_ratio = hits / total_lookups if total_lookups else 0.0

    lines = ["# repro run report", ""]
    lines.append(f"- mode: **{doc.get('mode', '?')}**, "
                 f"schema {doc.get('schema_version', '?')}")
    lines.append(f"- cells: **{len(cells)}** ok, **{len(failures)}** "
                 f"quarantined, jobs={run.get('jobs', '?')}")
    lines.append(f"- elapsed: {run.get('elapsed_s', 0.0):.1f}s wall "
                 f"(cell wall clock "
                 f"{run.get('cell_wall_clock_s', 0.0):.1f}s)")
    lines.append(f"- cache: {hits} hits / {misses} misses "
                 f"({hit_ratio:.0%} hit ratio)")
    if run.get("backend", "local") != "local":
        lines.append(f"- backend: **{run['backend']}**"
                     + (" — **interrupted (partial)**"
                        if run.get("interrupted") else ""))
    if doc.get("src_hash"):
        lines.append(f"- src hash: `{doc['src_hash'][:16]}`")

    lines.append("")
    lines.append("## Per-experiment timings")
    lines.append("")
    by_exp: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for cell in cells:
        by_exp[cell["experiment"]].append(cell)
    rows = []
    for exp in sorted(by_exp):
        walls = [c.get("wall_clock_s", 0.0) for c in by_exp[exp]]
        cached = sum(1 for c in by_exp[exp] if c.get("cached"))
        rows.append([exp, len(walls), cached, f"{sum(walls):.2f}",
                     f"{_mean(walls):.2f}", f"{max(walls):.2f}"])
    lines.extend(markdown_table(["experiment", "cells", "cached", "total s",
                         "mean s", "max s"], rows))

    slowest = sorted((c for c in cells if not c.get("cached")),
                     key=lambda c: c.get("wall_clock_s", 0.0),
                     reverse=True)[:top]
    if slowest:
        lines.append("")
        lines.append(f"## Top {len(slowest)} slowest cells")
        lines.append("")
        lines.extend(markdown_table(
            ["cell", "wall s", "events"],
            [[c["key"], f"{c.get('wall_clock_s', 0.0):.2f}",
              f"{int(c.get('metrics', {}).get('events_processed', 0)):,}"]
             for c in slowest]))

    lines.append("")
    lines.append("## Failures")
    lines.append("")
    if failures:
        taxonomy: Dict[str, int] = defaultdict(int)
        for failure in failures:
            taxonomy[failure.get("kind", "?")] += 1
        lines.append(", ".join(f"{kind}: {taxonomy[kind]}"
                               for kind in sorted(taxonomy)))
        lines.append("")
        lines.extend(markdown_table(
            ["cell", "kind", "attempts", "message"],
            [[f.get("key", "?"), f.get("kind", "?"),
              f.get("attempts", "?"),
              str(f.get("message", ""))[:60]] for f in failures]))
    else:
        lines.append("none — every cell completed.")

    dist_run = (run.get("backend") == "dist"
                or any(e["event"].startswith("dist.")
                       for e in events or ()))
    if dist_run:
        lines.append("")
        lines.append("## Distributed backend")
        lines.append("")
        if run.get("interrupted"):
            lines.append("**Run was interrupted (drained); cells below "
                         "are the settled subset.**")
            lines.append("")
        lines.extend(_worker_section(cells, events))

    counters = _counter_rows(events or ())
    if counters:
        lines.append("")
        lines.append("## Scheduler counters")
        lines.append("")
        lines.extend(markdown_table(["counter", "count"], counters))

    lines.append("")
    lines.append("## Vegas vs Reno")
    lines.append("")
    lines.extend(_headline(cells))

    if events is not None:
        lines.append("")
        lines.append("## Telemetry")
        lines.append("")
        lines.extend(_telemetry_section(events))

    lines.append("")
    return "\n".join(lines)


HELP = ("render a Markdown run report from a sweep's JSON artifact "
        "(plus optional --telemetry JSONL)")


def configure_parser(sub) -> None:
    """Attach the ``report`` subparser to *sub* (a subparsers action)."""
    parser = sub.add_parser("report", help=HELP)
    parser.add_argument("results",
                        help="artifact from run-all/arena/search --json")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="telemetry JSONL from run-all --telemetry")
    parser.add_argument("--top", type=int, default=10,
                        help="slowest cells to list (default 10)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of stdout")
    parser.set_defaults(fn=run)


def run(args) -> int:
    from repro.harness.artifacts import load_document, write_text
    from repro.obs.events import load_events

    doc = load_document(args.results)
    events = load_events(args.telemetry) if args.telemetry else None
    report = render_report(doc, events=events, top=args.top)
    if args.out:
        write_text(args.out, report)
    print(f"report written to {args.out}" if args.out else report)
    return 0
