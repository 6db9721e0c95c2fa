"""§4.3 bullet 1: one-on-one transfers *with* background traffic.

"The results were similar.  Again, Reno did better when running
against Vegas than against itself, but this time its losses increased
by only 6% (versus 43%) in the Reno/Vegas case."

The with-background variant is not a registry artifact, so this file
walks the quick Table-1 grid itself.
"""

from repro.experiments import defaults as DFLT
from repro.experiments.one_on_one import run_one_on_one
from repro.metrics.tables import MetricTable, format_table

from _report import report

_cache = {}


def _grid():
    if "table" not in _cache:
        table = MetricTable([f"{small}/{large}"
                             for small, large in DFLT.TABLE1_COMBOS])
        runs = [(nbuf, delay) for nbuf in DFLT.TABLE1_BUFFERS
                for delay in DFLT.TABLE1_DELAYS[::2]]
        for small, large in DFLT.TABLE1_COMBOS:
            column = f"{small}/{large}"
            for seed, (nbuf, delay) in enumerate(runs):
                run = run_one_on_one(small, large, delay, nbuf, seed=seed,
                                     with_background=True)
                for row, value in (
                        ("Small throughput (KB/s)",
                         run.small.throughput_kbps),
                        ("Large throughput (KB/s)",
                         run.large.throughput_kbps),
                        ("Small retransmits (KB)",
                         run.small.retransmitted_kb),
                        ("Large retransmits (KB)",
                         run.large.retransmitted_kb),
                        ("Combined retransmits (KB)",
                         run.small.retransmitted_kb
                         + run.large.retransmitted_kb)):
                    table.add_sample(row, column, value)
        _cache["table"] = table
    return _cache["table"]


def test_one_on_one_with_background(benchmark):
    table = _grid()
    benchmark.pedantic(
        lambda: run_one_on_one("reno", "vegas", delay=1.0, buffers=15,
                               with_background=True),
        rounds=3, iterations=1)

    # Reno's large transfer still does at least as well against Vegas.
    base = table.mean("Large throughput (KB/s)", "reno/reno")
    vs_vegas = table.mean("Large throughput (KB/s)", "vegas/reno")
    assert vs_vegas > 0.75 * base
    # Combined losses still drop when Vegas replaces a Reno.
    assert (table.mean("Combined retransmits (KB)", "vegas/vegas")
            < table.mean("Combined retransmits (KB)", "reno/reno"))

    report("s43_one_on_one_background", format_table(
        "§4.3: One-on-one transfers with tcplib background traffic",
        table,
        ratios_for={"Small throughput (KB/s)": "reno/reno",
                    "Large throughput (KB/s)": "reno/reno"}))
