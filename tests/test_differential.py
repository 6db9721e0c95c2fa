"""Differential tests: Vegas vs Reno/Tahoe/NewReno on identical
seeded scenarios.

The paper's central quantitative claims are *orderings* — Vegas
achieves better throughput with fewer retransmissions than Reno — and
orderings survive simulator evolution far better than absolute
numbers.  Every scheme here sees byte-identical network conditions
(same topology, same seed, and under fault injection the same
per-channel fault schedule), so any difference in outcome is
attributable to the congestion-control policy alone.
"""

import pytest

from repro.checks import checking
from repro.core.registry import make_cc
from repro.experiments.transfers import run_solo_transfer
from repro.faults import injecting
from repro.harness.registry import Cell, run_cell
from repro.units import kb

from helpers import make_pair, run_transfer

SCHEMES = ("reno", "tahoe", "newreno", "vegas")

#: Identical seeded fault scenario applied to every scheme.
FAULT_SPEC = "drop=0.01,seed=5"


@pytest.fixture(scope="module")
def solo():
    """One clean 256KB Figure-5 transfer per scheme, same seed."""
    return {cc: run_solo_transfer(cc, size=kb(256), buffers=10, seed=0)
            for cc in SCHEMES}


@pytest.fixture(scope="module")
def faulted():
    """One 128KB transfer per scheme under identical seeded faults."""
    results = {}
    for cc in SCHEMES:
        with injecting(FAULT_SPEC):
            pair = make_pair()
            transfer = run_transfer(pair, kb(128), cc=make_cc(cc))
        results[cc] = transfer
    return results


class TestCleanDifferential:
    def test_every_scheme_completes(self, solo):
        for cc, result in solo.items():
            assert result.done, cc

    def test_vegas_retransmits_no_more_than_reno(self, solo):
        assert solo["vegas"].retransmitted_kb <= solo["reno"].retransmitted_kb

    def test_vegas_throughput_at_least_reno(self, solo):
        assert solo["vegas"].throughput_kbps >= solo["reno"].throughput_kbps

    def test_vegas_coarse_timeouts_no_more_than_reno(self, solo):
        assert solo["vegas"].coarse_timeouts <= solo["reno"].coarse_timeouts

    def test_vegas_beats_tahoe_as_well(self, solo):
        assert solo["vegas"].retransmitted_kb <= \
            solo["tahoe"].retransmitted_kb
        assert solo["vegas"].throughput_kbps >= solo["tahoe"].throughput_kbps

    def test_newreno_improves_on_reno(self, solo):
        # Partial-ACK recovery avoids the multi-drop timeout pathology
        # plain Reno suffers (§3.1), so NewReno retransmits less.
        assert solo["newreno"].retransmitted_kb <= \
            solo["reno"].retransmitted_kb
        assert solo["newreno"].coarse_timeouts <= \
            solo["reno"].coarse_timeouts

    def test_same_seed_reproduces_exactly(self):
        a = run_solo_transfer("vegas", size=kb(64), buffers=10, seed=7)
        b = run_solo_transfer("vegas", size=kb(64), buffers=10, seed=7)
        assert a.throughput_kbps == b.throughput_kbps
        assert a.retransmitted_kb == b.retransmitted_kb
        assert a.coarse_timeouts == b.coarse_timeouts


class TestFaultedDifferential:
    def test_every_scheme_survives_the_faults(self, faulted):
        for cc, transfer in faulted.items():
            assert transfer.done, cc

    def test_vegas_retransmits_no_more_than_reno(self, faulted):
        assert faulted["vegas"].conn.stats.retransmitted_kb() <= \
            faulted["reno"].conn.stats.retransmitted_kb()

    def test_vegas_throughput_at_least_reno(self, faulted):
        assert faulted["vegas"].conn.stats.throughput_kbps() >= \
            faulted["reno"].conn.stats.throughput_kbps()

    def test_vegas_timeouts_no_more_than_reno(self, faulted):
        assert faulted["vegas"].conn.stats.coarse_timeouts <= \
            faulted["reno"].conn.stats.coarse_timeouts


class TestFigureCells:
    """The paper's Figure 6 (Reno) vs Figure 7 (Vegas) head-to-head,
    through the registry cells the harness and CI sweep."""

    @pytest.fixture(scope="class")
    def figures(self):
        return {name: run_cell(Cell.make(name, seed=0), checks=True)
                for name in ("figure6", "figure7")}

    def test_vegas_trace_beats_reno_trace(self, figures):
        reno, vegas = figures["figure6"], figures["figure7"]
        assert vegas["throughput_kbps"] > reno["throughput_kbps"]
        assert vegas["retransmit_kb"] < reno["retransmit_kb"]

    def test_checked_figure_cells_have_no_violations(self, figures):
        for name, metrics in figures.items():
            assert metrics["invariant_violations"] == 0.0, name
