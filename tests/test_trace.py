"""Tests for the trace facility: records, tracers, series, graphs."""

import hashlib

import pytest

from repro.experiments.background import run_with_background
from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import (
    TransferResult,
    start_measured_transfer,
)
from repro.net.queue import DropTailQueue
from repro.trace import series as S
from repro.trace.ascii_plot import (
    AsciiPlot,
    render_cam_panel,
    render_rate_panel,
    render_windows_panel,
)
from repro.trace.graphs import build_trace_graph
from repro.trace.records import Kind, Record
from repro.trace.tracer import ConnectionTracer, RouterTracer
from repro.units import mb

from helpers import make_pair, run_transfer


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


#: The :class:`TransferResult` fields the pinned digests were taken
#: over, in that order; a field added later is not part of the pin.
_RESULT_FIELDS = ("cc_name", "size_bytes", "done", "throughput_kbps",
                  "retransmitted_kb", "coarse_timeouts", "fast_retransmits",
                  "fine_retransmits", "duration")


def _values(outcome) -> tuple:
    """The pinned values: :data:`_RESULT_FIELDS` of a
    :class:`TransferResult` or, for the slotted :class:`FlowStats`,
    its slots."""
    names = (_RESULT_FIELDS if isinstance(outcome, TransferResult)
             else type(outcome).__slots__)
    return tuple(getattr(outcome, name) for name in names)


class TestPinnedTraces:
    """The rows Figures 1-3 and 6-9 are drawn from, pinned exactly.

    The sweep fingerprint covers metrics and event counts only; these
    digests also catch a change in a traced value's type (``3`` vs
    ``3.0``), an extra or missing record, or a reordered one.
    """

    # case -> (row count, sha256 of the rows, sha256 of the flow stats)
    PINNED = {
        "solo-reno": (
            5306,
            "8b7804e391f72123a33b29e8f77b0659956515fe51e3ccb90ffccaeb3e59ebeb",
            "b89729a0b4b1b69fbaecf7bcb93567b5ddc44c25c9d0989e596f39f491e0f321"),
        "solo-vegas": (
            4780,
            "b0989b96f7c695d9a7c171cb474253a077cf622866dbc3789932454ede28c159",
            "561adab34be7b665eaf6a4c24b60a88d1d95101bc7d184bcd9f31c6fd31d9301"),
        "background-reno": (
            5319,
            "6a4fab1e0b45c10028a64048cd6a5027c2ea91e8a1c8b70b302a46f4bdcaf3a6",
            "73d02a4c86ecfae98e9bd54a4660c8085ec2972d5b2064c32d6647b7c080e0d1"),
        "background-vegas": (
            4887,
            "c738968016a523c5c4c8e0746e8b96b76bea5f5018757adebceb6cb72c09c22a",
            "1feae344f2898638d83029025dd793e7a48c6a6d8cc5e1696c3ff87da774aac9"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_rows_and_stats_unchanged(self, case):
        tracer = ConnectionTracer(case)
        scheme = case.split("-", 1)[1]
        if case.startswith("solo-"):
            net = build_figure5(seed=0)
            transfer = start_measured_transfer(
                net.protocol("Host1a"), net.protocol("Host1b"), scheme,
                mb(1), tracer=tracer)
            net.sim.run(until=60.0)
            outcome = transfer.conn.stats
        else:
            outcome = run_with_background(scheme, seed=0,
                                          tracer=tracer).transfer
        rows = [(t, int(k), a, b) for t, k, a, b in tracer.rows()]
        assert (len(rows), _digest(rows),
                _digest(_values(outcome))) == self.PINNED[case]


class TestTracer:
    def test_records_appended_in_order(self):
        tracer = ConnectionTracer("t")
        tracer.record(1.0, Kind.SEND, 0, 100)
        tracer.record(2.0, Kind.ACK_RX, 100)
        assert len(tracer) == 2
        assert tracer.records[0] == Record(1.0, int(Kind.SEND), 0, 100)

    def test_of_kind_and_count(self):
        tracer = ConnectionTracer("t")
        for i in range(3):
            tracer.record(float(i), Kind.SEND, i)
        tracer.record(5.0, Kind.RETX, 9)
        assert tracer.count(Kind.SEND) == 3
        assert [r.a for r in tracer.of_kind(Kind.SEND)] == [0, 1, 2]

    def test_disabled_tracer_is_free(self):
        tracer = ConnectionTracer("t", enabled=False)
        tracer.record(1.0, Kind.SEND)
        assert len(tracer) == 0

    def test_clear(self):
        tracer = ConnectionTracer("t")
        tracer.record(1.0, Kind.SEND)
        tracer.clear()
        assert len(tracer) == 0


class TestRouterTracer:
    def test_depth_and_drop_series(self):
        queue = DropTailQueue(capacity=2)
        tracer = RouterTracer(queue, "bottleneck")

        class P:
            size = 100

        queue.offer(P(), 0.0)
        queue.offer(P(), 1.0)
        queue.offer(P(), 2.0)  # drop
        queue.poll(3.0)
        assert tracer.drops == 1
        assert tracer.max_depth() == 2
        assert tracer.drop_series == [(2.0, 100)]

    def test_mean_depth_time_weighted(self):
        queue = DropTailQueue(capacity=10)
        tracer = RouterTracer(queue)

        class P:
            size = 1

        queue.offer(P(), 0.0)   # depth 1 from t=0
        queue.offer(P(), 10.0)  # depth 2 from t=10
        mean = tracer.mean_depth(0.0, 20.0)
        assert mean == pytest.approx(1.5)


class TestSeriesExtraction:
    def _traced_transfer(self, nbytes=80 * 1024, queue_capacity=10):
        pair = make_pair(queue_capacity=queue_capacity)
        tracer = ConnectionTracer("t")
        transfer = run_transfer(pair, nbytes, tracer=tracer)
        assert transfer.done
        return tracer, transfer

    def test_send_and_ack_marks(self):
        tracer, transfer = self._traced_transfer()
        sends = S.send_marks(tracer)
        acks = S.ack_marks(tracer)
        assert len(sends) >= 80
        assert len(acks) >= 20
        assert sends == sorted(sends)

    def test_kilobyte_marks_monotone(self):
        tracer, _ = self._traced_transfer()
        marks = S.kilobyte_marks(tracer, every_kb=10)
        values = [kb for _, kb in marks]
        assert values == sorted(values)
        assert values[0] == 10
        assert values[-1] >= 70

    def test_loss_lines_precede_retransmissions(self):
        tracer, transfer = self._traced_transfer(nbytes=400 * 1024,
                                                 queue_capacity=5)
        assert transfer.conn.stats.retransmit_segments > 0
        lines = S.loss_lines(tracer)
        assert len(lines) == tracer.count(Kind.RETX)
        retx_times = [r.time for r in tracer.of_kind(Kind.RETX)]
        assert all(line <= t for line, t in zip(sorted(lines),
                                                sorted(retx_times)))

    def test_sending_rate_series_reasonable(self):
        tracer, _ = self._traced_transfer()
        rates = S.sending_rate_series(tracer, window_segments=12)
        assert rates
        # Rates are positive and below 10x the bottleneck (bursts from
        # the 10 Mb/s access LAN can exceed 200 KB/s briefly).
        assert all(0 < r for _, r in rates)

    def test_value_at_step_semantics(self):
        series = [(1.0, 10.0), (2.0, 20.0)]
        assert S.value_at(series, 0.5) is None
        assert S.value_at(series, 1.0) == 10.0
        assert S.value_at(series, 1.5) == 10.0
        assert S.value_at(series, 3.0) == 20.0

    def test_sawtooth_count(self):
        flat = [(t, 100.0) for t in range(10)]
        assert S.sawtooth_count(flat) == 0
        saw = [(0, 10), (1, 20), (2, 30), (3, 10), (4, 20), (5, 30), (6, 10)]
        assert S.sawtooth_count(saw) == 2

    def test_steady_state_stats(self):
        series = [(0.0, 5.0), (1.0, 10.0), (2.0, 20.0)]
        mean, spread = S.steady_state_stats(series, t_start=1.0)
        assert mean == 15.0 and spread == 10.0


class TestTraceGraph:
    def test_reno_graph_has_all_panels(self):
        pair = make_pair(queue_capacity=5)
        tracer = ConnectionTracer("reno")
        transfer = run_transfer(pair, 300 * 1024, tracer=tracer)
        graph = build_trace_graph(tracer, name="reno")
        assert graph.common.send_marks
        assert graph.common.ack_marks
        assert graph.common.timer_diamonds  # coarse timer checks
        assert graph.windows.congestion_window
        assert graph.windows.bytes_in_transit
        assert graph.sending_rate
        assert graph.cam is None  # not a Vegas trace
        assert graph.losses() == transfer.conn.stats.retransmit_segments
        assert graph.duration > 0

    def test_vegas_graph_has_cam_panel(self):
        from repro.core.vegas import VegasCC

        pair = make_pair(queue_capacity=10)
        tracer = ConnectionTracer("vegas")
        transfer = run_transfer(pair, 300 * 1024, cc=VegasCC(), tracer=tracer)
        graph = build_trace_graph(tracer, name="vegas", alpha_buffers=2,
                                  beta_buffers=4)
        assert graph.cam is not None
        assert graph.cam.alpha == 2 and graph.cam.beta == 4
        assert len(graph.cam.expected) == len(graph.cam.actual)
        assert graph.cam.decision_times == sorted(graph.cam.decision_times)


class TestAsciiPlot:
    def test_render_produces_grid(self):
        plot = AsciiPlot(width=40, height=8, title="test")
        plot.add_series([(0.0, 0.0), (1.0, 10.0), (2.0, 5.0)], "*")
        plot.add_top_marks([0.5, 1.5], "o")
        text = plot.render()
        lines = text.splitlines()
        assert lines[0] == "test"
        assert "*" in text and "o" in text
        assert "time (s)" in text

    def test_empty_plot_renders(self):
        assert AsciiPlot(width=20, height=4).render()

    def test_panel_renderers(self):
        from repro.core.vegas import VegasCC

        pair = make_pair()
        tracer = ConnectionTracer("v")
        run_transfer(pair, 100 * 1024, cc=VegasCC(), tracer=tracer)
        graph = build_trace_graph(tracer, name="v")
        assert "windows" in render_windows_panel(graph)
        assert "KB/s" in render_rate_panel(graph)
        assert "CAM" in render_cam_panel(graph)

    def test_cam_panel_without_cam_data(self):
        pair = make_pair()
        tracer = ConnectionTracer("r")
        run_transfer(pair, 20 * 1024, tracer=tracer)  # Reno
        graph = build_trace_graph(tracer, name="r")
        assert "no CAM data" in render_cam_panel(graph)
