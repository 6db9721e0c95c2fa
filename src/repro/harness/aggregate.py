"""Fold harness cells into the paper-style tables and summaries.

Every paper artifact's title, rows and format strings live here and
nowhere else: each ``render_*`` function is the renderer of one
experiment's record in :mod:`repro.harness.registry`, and ``run-all``
(``python -m repro run-all --experiments table2`` ...) runs registry
cells and prints :func:`summarize` over them.  Aggregation works on
JSON-shaped cell dicts — ``{"experiment", "params", "metrics"}`` — so
it applies equally to a fresh :class:`~repro.harness.runner.RunReport`
rendered by :func:`repro.harness.artifacts.build_document` and to a
document loaded back from disk.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.metrics.tables import MetricTable, format_table

Cells = Sequence[Dict[str, Any]]


def _group(cells: Cells) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for cell in sorted(cells, key=lambda c: c["key"]):
        grouped.setdefault(cell["experiment"], []).append(cell)
    return grouped


def _means(title: str, by: Sequence[str], columns: Sequence[tuple],
           cells: Cells) -> str:
    """One row per distinct *by* value: each ``(label, metric)`` column's mean."""
    groups: Dict[tuple, List[Dict[str, float]]] = {}
    for cell in cells:
        key = tuple(cell["params"][name] for name in by)
        groups.setdefault(key, []).append(cell["metrics"])
    lines = [title, " | ".join([*by, *(label for label, _ in columns)])]
    for key in sorted(groups):
        runs = groups[key]
        means = (sum(m[metric] for m in runs) / len(runs)
                 for _, metric in columns)
        lines.append(" | ".join([*map(str, key),
                                 *(f"{mean:.4g}" for mean in means)]))
    return "\n".join(lines)


def render_table1(cells: Cells,
                  title: str = "Table 1: one-on-one transfers",
                  with_paper: bool = True) -> str:
    from repro.experiments.defaults import PAPER_TABLE1

    columns = sorted({f"{c['params']['small']}/{c['params']['large']}"
                      for c in cells})
    table = MetricTable(columns)
    for cell in cells:
        column = f"{cell['params']['small']}/{cell['params']['large']}"
        metrics = cell["metrics"]
        table.add_sample("Small throughput (KB/s)", column,
                         metrics["small_throughput_kbps"])
        table.add_sample("Large throughput (KB/s)", column,
                         metrics["large_throughput_kbps"])
        table.add_sample("Small retransmits (KB)", column,
                         metrics["small_retransmit_kb"])
        table.add_sample("Large retransmits (KB)", column,
                         metrics["large_retransmit_kb"])
        table.add_sample("Combined retransmits (KB)", column,
                         metrics["small_retransmit_kb"]
                         + metrics["large_retransmit_kb"])
    ratios = {}
    if "reno/reno" in columns:
        ratios = {"Small throughput (KB/s)": "reno/reno",
                  "Large throughput (KB/s)": "reno/reno"}
    return format_table(title, table, ratios_for=ratios,
                        paper=PAPER_TABLE1 if with_paper else None)


def _simple_transfer_table(cells: Cells, title: str, column_param: str,
                           paper=None) -> str:
    columns = sorted({str(c["params"][column_param]) for c in cells})
    table = MetricTable(columns)
    for cell in cells:
        column = str(cell["params"][column_param])
        metrics = cell["metrics"]
        table.add_sample("Throughput (KB/s)", column,
                         metrics["throughput_kbps"])
        table.add_sample("Retransmissions (KB)", column,
                         metrics["retransmit_kb"])
        table.add_sample("Coarse timeouts", column,
                         metrics["coarse_timeouts"])
        if "background_throughput_kbps" in metrics:
            table.add_sample("Background throughput (KB/s)", column,
                             metrics["background_throughput_kbps"])
    ratios = {}
    if "reno" in columns:
        ratios = {"Throughput (KB/s)": "reno", "Retransmissions (KB)": "reno"}
    return format_table(title, table, ratios_for=ratios, paper=paper)


def render_table2(cells: Cells) -> str:
    from repro.experiments.defaults import PAPER_TABLE2

    return _simple_transfer_table(
        cells, "Table 2: 1MB transfer vs tcplib background", "proto",
        paper=PAPER_TABLE2)


def render_table3(cells: Cells) -> str:
    from repro.experiments.defaults import PAPER_TABLE3

    sums: Dict[tuple, List[float]] = {}
    for cell in cells:
        pair = (cell["params"]["background"], cell["params"]["transfer"])
        sums.setdefault(pair, []).append(
            cell["metrics"]["background_throughput_kbps"])
    lines = ["Table 3: background throughput (KB/s)",
             "background CC | transfer CC | measured | paper"]
    for pair in sorted(sums):
        mean = sum(sums[pair]) / len(sums[pair])
        lines.append(f"{pair[0]:>13} | {pair[1]:>11} | {mean:8.1f} | "
                     f"{PAPER_TABLE3[pair]:5.0f}")
    return "\n".join(lines)


def render_table4(cells: Cells) -> str:
    from repro.experiments.defaults import PAPER_TABLE4

    return _simple_transfer_table(
        cells, "Table 4: 1MB over the emulated UA->NIH path", "proto",
        paper=PAPER_TABLE4)


def render_table5(cells: Cells) -> str:
    from repro.experiments.defaults import PAPER_TABLE5
    from repro.units import kb

    sizes = sorted({c["params"]["size_kb"] for c in cells}, reverse=True)
    sections = []
    for size_kb in sizes:
        subset = [c for c in cells if c["params"]["size_kb"] == size_kb]
        sections.append(_simple_transfer_table(
            subset, f"Table 5 — {size_kb} KB transfers", "proto",
            paper=PAPER_TABLE5.get(kb(size_kb))))
    return "\n\n".join(sections)


def _figure(title: str, paper_note: str):
    def render(cells: Cells) -> str:
        lines = [f"{title} ({paper_note})"]
        for cell in cells:
            metrics = cell["metrics"]
            lines.append(
                f"seed {cell['params']['seed']}: "
                f"{metrics['throughput_kbps']:.1f} KB/s, "
                f"{metrics['retransmit_kb']:.1f} KB retransmitted, "
                f"{metrics['coarse_timeouts']:.0f} timeouts, "
                f"{metrics['segments_lost']:.0f} segments lost")
            if "send_marks" in metrics:
                lines.append(
                    f"  {metrics['send_marks']:.0f} send marks, "
                    f"{metrics['ack_marks']:.0f} ACK marks, "
                    f"{metrics['timer_diamonds']:.0f} timer diamonds, "
                    f"{metrics['timeout_circles']:.0f} timeout circles")
            if "cam_decisions" in metrics:
                lines.append(
                    f"  {metrics['cam_decisions']:.0f} CAM decisions, Diff "
                    f"{metrics['diff_min']:.2f}..{metrics['diff_max']:.2f} "
                    "buffers")
        return "\n".join(lines)
    return render


render_figure1 = _figure("Figure 1 — Reno + tcplib background",
                         "the Figure 2/3 graph elements")
render_figure6 = _figure("Figure 6 — Reno, no other traffic",
                         "paper: 105 KB/s")
render_figure7 = _figure("Figure 7 — Vegas, no other traffic",
                         "paper: 169 KB/s")
render_figure9 = _figure("Figure 9 — Vegas + tcplib background",
                         "trace headline numbers")


#: The columns of a table of transfers (``ablation.transfer_metrics``).
_TRANSFER_COLUMNS = (("time s", "transfer_s"), ("KB/s", "throughput_kbps"),
                     ("retx KB", "retransmit_kb"),
                     ("timeouts", "coarse_timeouts"),
                     ("fast retx", "fast_retransmits"),
                     ("fine retx", "fine_retransmits"))


def render_figure4(cells: Cells) -> str:
    return _means("Figure 4 — two segments lost from a 6 KB window", ("cc",),
                  _TRANSFER_COLUMNS, cells)


def render_table1bg(cells: Cells) -> str:
    return render_table1(
        cells, "§4.3 one-on-one transfers with tcplib background",
        with_paper=False)


def render_ablation(cells: Cells) -> str:
    return _means(
        "Ablations: Vegas techniques, thresholds, prior schemes, BaseRTT",
        ("path", "size_kb", "scheme"), _TRANSFER_COLUMNS, cells)


def render_allvegas(cells: Cells) -> str:
    return _means(
        "§6 all-Reno vs all-Vegas world across router buffers",
        ("buffers", "cc"),
        (("goodput KB/s", "goodput_kbps"), ("retx KB", "retransmit_kb"),
         ("timeouts", "coarse_timeouts"),
         ("TELNET s", "telnet_mean_response_s")), cells)


def render_sendbuf(cells: Cells) -> str:
    by_size: Dict[int, Dict[str, List[Dict[str, float]]]] = {}
    for cell in cells:
        size = cell["params"]["size_kb"]
        by_size.setdefault(size, {}).setdefault(
            cell["params"]["cc"], []).append(cell["metrics"])
    lines = ["§4.3 send-buffer sweep (1 MB solo transfers)",
             "sndbuf | Reno KB/s (retx) | Vegas KB/s (retx)"]

    def mean(metrics_list, field):
        return sum(m[field] for m in metrics_list) / len(metrics_list)

    for size in sorted(by_size):
        cols = []
        for cc in ("reno", "vegas"):
            runs = by_size[size].get(cc)
            if runs:
                cols.append(f"{mean(runs, 'throughput_kbps'):8.1f} "
                            f"({mean(runs, 'retransmit_kb'):5.1f})")
            else:
                cols.append(f"{'-':>16}")
        lines.append(f"{size:4d}KB | {cols[0]} | {cols[1]}")
    return "\n".join(lines)


def render_fairness(cells: Cells) -> str:
    lines = ["§4.3 multiple competing connections (Jain index)"]
    ordered = sorted(cells, key=lambda c: (c["params"]["count"],
                                           c["params"]["cc"],
                                           c["params"]["mixed"]))
    for cell in ordered:
        params, metrics = cell["params"], cell["metrics"]
        delays = "2:1" if params["mixed"] else "equal"
        lines.append(f"{params['count']:3d} conns, {delays:5s} delays, "
                     f"{params['cc']:5s}: "
                     f"Jain {metrics['fairness_index']:.3f}, "
                     f"{metrics['coarse_timeouts']:.0f} timeouts")
    return "\n".join(lines)


def render_twoway(cells: Cells) -> str:
    return _simple_transfer_table(
        cells, "§4.3 two-way background traffic", "proto")


def render_telnet(cells: Cells) -> str:
    pooled: Dict[str, List[Dict[str, float]]] = {}
    for cell in cells:
        pooled.setdefault(cell["params"]["cc"], []).append(cell["metrics"])

    def pooled_mean(runs):
        total = sum(m["n_samples"] for m in runs)
        if not total:
            return 0.0
        return sum(m["mean_response_s"] * m["n_samples"] for m in runs) / total

    lines = ["§6 TELNET response time (all-Reno vs all-Vegas world)"]
    means = {cc: pooled_mean(runs) for cc, runs in pooled.items()}
    for cc in sorted(means):
        lines.append(f"all-{cc}: {means[cc] * 1000:7.1f} ms mean response")
    if means.get("reno"):
        speedup = (means["reno"] - means.get("vegas", 0.0)) / means["reno"]
        lines.append(f"vegas vs reno: {speedup * 100:+.1f}% "
                     "(paper: ~25% faster)")
    return "\n".join(lines)


def render_crossover(cells: Cells) -> str:
    """Per bottleneck: Reno's lead over Vegas and Reno's retransmits at
    each buffer count, seeds pooled, under the closed-form B* band."""
    points: Dict[tuple, Dict[int, List[Dict[str, float]]]] = {}
    for cell in cells:
        params = cell["params"]
        points.setdefault((params["bw_kbps"], params["delay_ms"]), {}) \
            .setdefault(params["buffers"], []).append(cell["metrics"])
    lines = ["§4.4 Reno/Vegas crossover: Reno minus Vegas throughput "
             "(KB/s) by router buffers"]
    for (bw, delay), by_buffers in sorted(points.items()):
        first = next(iter(by_buffers.values()))[0]
        lines.append(f"{bw} KB/s, {delay} ms: B* in "
                     f"[{first['bstar_lo']:.1f}, {first['bstar_hi']:.1f}]")
        lines.append("buffers | regret mean (min..max) | Reno retx KB")
        for nbuf, runs in sorted(by_buffers.items()):
            regret = [m["regret_kbps"] for m in runs]
            retx = sum(m["a_retransmit_kb"] for m in runs) / len(runs)
            lines.append(f"{nbuf:7d} | {sum(regret) / len(regret):+6.1f} "
                         f"({min(regret):+6.1f}..{max(regret):+6.1f}) | "
                         f"{retx:6.1f}")
    return "\n".join(lines)


def summarize(cells: Cells) -> str:
    """Paper-style text report for every experiment present in *cells*."""
    from repro.harness.registry import RECORDS

    grouped = _group(cells)
    sections = []
    # Table order first, then anything unknown (forward compatibility).
    order = [e for e in RECORDS if e in grouped]
    order.extend(e for e in sorted(grouped) if e not in RECORDS)
    for experiment in order:
        render = getattr(RECORDS.get(experiment), "render", None)
        if render is None:
            sections.append(f"{experiment}: {len(grouped[experiment])} cells "
                            "(no aggregator)")
        else:
            sections.append(render(grouped[experiment]))
    return "\n\n".join(sections)
