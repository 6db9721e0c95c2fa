"""Tests for the all-Vegas world experiment and RTT-sample tracing."""

import statistics

from repro.experiments.background import run_world
from repro.trace import series as S
from repro.trace.tracer import ConnectionTracer

from helpers import make_pair, run_transfer


class TestRunWorld:
    def test_world_runs_and_aggregates(self):
        result = run_world("vegas", buffers=10, seed=0, arrival_mean=0.25,
                           duration=40.0)
        assert result.conversations > 20
        assert result.goodput_kbps > 0
        assert statistics.fmean(result.telnet_samples) > 0

    def test_worlds_differ_by_protocol(self):
        reno = run_world("reno", buffers=10, seed=0, arrival_mean=0.25,
                         duration=40.0)
        vegas = run_world("vegas", buffers=10, seed=0, arrival_mean=0.25,
                          duration=40.0)
        assert vegas.retransmit_kb < reno.retransmit_kb


class TestRttSeries:
    def test_samples_recorded_and_extracted(self):
        pair = make_pair()
        tracer = ConnectionTracer("rtt")
        run_transfer(pair, 64 * 1024, tracer=tracer)
        series = S.rtt_series(tracer)
        assert len(series) > 10
        # All samples at least the base RTT (~100 ms) and below the
        # worst case (base + full queue + timer slop).
        assert all(0.09 < rtt < 1.0 for _, rtt in series)

    def test_vegas_keeps_rtt_lower_than_reno(self):
        """The latency story: Reno rides the queue up before every
        loss; Vegas holds only alpha..beta extra segments."""
        from repro.core.vegas import VegasCC

        def p95(cc):
            pair = make_pair()
            tracer = ConnectionTracer("t")
            run_transfer(pair, 512 * 1024, cc=cc, tracer=tracer)
            samples = sorted(v for _, v in S.rtt_series(tracer))
            return samples[int(0.95 * len(samples))]

        assert p95(VegasCC()) < p95(None)  # None -> default Reno
