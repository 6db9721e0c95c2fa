"""Tests for flow statistics, fairness, and table aggregation."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.fairness import jain_fairness_index, worst_to_best_ratio
from repro.metrics.flowstats import FlowStats
from repro.metrics.tables import MetricTable, RunAggregate, format_table


class TestFlowStats:
    def test_throughput_definition(self):
        stats = FlowStats()
        stats.open_time = 1.0
        stats.last_ack_time = 11.0
        stats.app_bytes_acked = 100 * 1024
        assert stats.throughput_kbps() == pytest.approx(10.0)

    def test_throughput_zero_before_completion(self):
        assert FlowStats().throughput_kbps() == 0.0

    def test_retransmitted_kb(self):
        stats = FlowStats()
        stats.retransmitted_bytes = 3 * 1024
        assert stats.retransmitted_kb() == 3.0

    def test_rtt_tracking(self):
        stats = FlowStats()
        for sample in (0.1, 0.3, 0.2):
            stats.note_rtt(sample)
        assert stats.rtt_min == pytest.approx(0.1)
        assert stats.rtt_max == pytest.approx(0.3)
        assert stats.rtt_mean == pytest.approx(0.2)
        assert stats.rtt_samples == 3

    def test_rtt_mean_empty(self):
        assert FlowStats().rtt_mean is None

    def test_summary_string(self):
        stats = FlowStats()
        stats.open_time, stats.last_ack_time = 0.0, 10.0
        stats.app_bytes_acked = 10240
        text = stats.summary()
        assert "KB/s" in text and "timeouts" in text


class TestFairness:
    def test_equal_allocations_are_fair(self):
        assert jain_fairness_index([10, 10, 10]) == pytest.approx(1.0)

    def test_single_hog(self):
        # One of n getting everything -> index = 1/n.
        assert jain_fairness_index([30, 0, 0]) == pytest.approx(1 / 3)

    def test_known_value(self):
        # Jain's example: (1,2,3) -> 36/(3*14).
        assert jain_fairness_index([1, 2, 3]) == pytest.approx(36 / 42)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness_index([1, -1])

    def test_all_zero_is_fair(self):
        assert jain_fairness_index([0, 0]) == 1.0

    def test_same_on_every_python(self):
        """Python 3.12's ``sum()`` compensates float additions: over ten
        0.1s it gives 1.0 where 3.11 gives 0.9999999999999999, and this
        index 0.9999999999999998 where 3.11 gives ...993.  A metric
        sums left to right on every interpreter."""
        from repro.numeric import fold_sum

        assert fold_sum([0.1] * 10) == 0.9999999999999999
        assert fold_sum([]) == 0 and fold_sum([2, 3]) == 5
        assert jain_fairness_index([0.1] * 10) == 0.9999999999999993

    def test_worst_to_best(self):
        assert worst_to_best_ratio([5, 10]) == pytest.approx(0.5)
        assert worst_to_best_ratio([0, 0]) == 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_index_bounds(self, xs):
        index = jain_fairness_index(xs)
        assert 1.0 / len(xs) - 1e-9 <= index <= 1.0 + 1e-9

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, xs, k):
        assert jain_fairness_index(xs) == pytest.approx(
            jain_fairness_index([x * k for x in xs]), rel=1e-6)


class TestRunAggregate:
    def test_mean_and_stdev(self):
        agg = RunAggregate()
        for v in (1.0, 2.0, 3.0):
            agg.add(v)
        assert agg.mean == 2.0
        assert agg.stdev == pytest.approx(1.0)
        assert agg.count == 3

    def test_empty_mean_zero(self):
        assert RunAggregate().mean == 0.0
        assert RunAggregate().stdev == 0.0


class TestMetricTable:
    def _table(self):
        table = MetricTable(["reno", "vegas"])
        for v in (50.0, 60.0):
            table.add_sample("Throughput (KB/s)", "reno", v)
        for v in (80.0, 90.0):
            table.add_sample("Throughput (KB/s)", "vegas", v)
        return table

    def test_means(self):
        table = self._table()
        assert table.mean("Throughput (KB/s)", "reno") == 55.0
        assert table.mean("Throughput (KB/s)", "vegas") == 85.0

    def test_ratio_row(self):
        table = self._table()
        ratios = table.ratio_row("Throughput (KB/s)", "reno")
        assert ratios["reno"] == pytest.approx(1.0)
        assert ratios["vegas"] == pytest.approx(85 / 55)

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            self._table().add_sample("x", "tahoe", 1.0)

    def test_rows_preserve_insertion_order(self):
        table = MetricTable(["a"])
        table.add_sample("second?", "a", 1)
        table.add_sample("first?", "a", 1)
        assert table.rows() == ["second?", "first?"]

    def test_format_includes_ratios_and_paper(self):
        table = self._table()
        text = format_table(
            "Table X", table,
            ratios_for={"Throughput (KB/s)": "reno"},
            paper={"Throughput (KB/s)": {"reno": 58.3, "vegas": 89.4}})
        assert "Table X" in text
        assert "ratio" in text
        assert "(paper)" in text
        assert "58.30" in text
