"""Tests for the experiment drivers (one cheap run per family)."""

from dataclasses import replace

import pytest

from repro.arena.cells import run_cohort
from repro.arena.scenarios import get_scenario
from repro.experiments import defaults as DFLT
from repro.experiments.background import run_with_background
from repro.experiments.figure5 import HOST_NAMES, build_figure5
from repro.experiments.internet import build_internet_path, run_internet_transfer
from repro.experiments.one_on_one import run_one_on_one
from repro.experiments.telnet_response import run_telnet_response
from repro.experiments.transfers import run_solo_transfer
from repro.metrics.fairness import jain_fairness_index
from repro.units import kb


class TestFigure5Network:
    def test_structure(self):
        net = build_figure5(buffers=15)
        assert set(net.hosts) == set(HOST_NAMES)
        assert net.forward_queue.capacity == 15
        assert net.reverse_queue.capacity == 15
        assert set(net.protocols) == set(HOST_NAMES)

    def test_cross_topology_reachability(self):
        net = build_figure5()
        from repro.net.packet import Packet

        got = []
        net.hosts["Host3b"].protocol_handler = lambda p: got.append(p.uid)
        net.hosts["Host2a"].send_packet(Packet("Host2a", "Host3b", None, 100))
        net.sim.run(until=1.0)
        assert len(got) == 1

    def test_seed_changes_timer_phases(self):
        a = build_figure5(seed=1)
        b = build_figure5(seed=2)
        assert a.rng.stream("x").random() != b.rng.stream("x").random()


class TestSoloTransfers:
    def test_reno_solo_result_fields(self):
        result = run_solo_transfer("reno", size=kb(200))
        assert result.done
        assert result.cc_name == "reno"
        assert result.throughput_kbps > 0
        assert result.duration > 0

    def test_custom_factory_accepted(self):
        from repro.core.vegas import VegasCC

        result = run_solo_transfer(lambda: VegasCC(alpha=1, beta=3),
                                   size=kb(100))
        assert result.done


class TestOneOnOne:
    def test_single_run_produces_pair(self):
        result = run_one_on_one("vegas", "vegas", delay=1.0, buffers=15,
                                seed=0)
        assert result.small.done and result.large.done
        assert result.combo == "vegas/vegas"
        assert result.small.size_bytes == DFLT.SMALL_TRANSFER
        assert result.large.size_bytes == DFLT.LARGE_TRANSFER

    def test_background_variant_runs(self):
        result = run_one_on_one("reno", "vegas", delay=0.5, buffers=15,
                                seed=1, with_background=True)
        assert result.small.done and result.large.done


class TestBackgroundRuns:
    def test_background_statistics_collected(self):
        run = run_with_background("vegas", seed=3)
        assert run.transfer.done
        assert run.background_conversations > 0
        assert run.background_throughput_kbps > 0

    @pytest.mark.slow
    def test_two_way_variant_runs(self):
        run = run_with_background("reno", seed=3, two_way=True)
        assert run.transfer.done


class TestInternet:
    def test_path_structure(self):
        path = build_internet_path(seed=0)
        # 17 hops = 16 routers; load profile covers interior links.
        routers = [n for n in path.topology.nodes.values()
                   if type(n).__name__ == "Router"]
        assert len(routers) == 16
        assert len(path.load_profile) == 15
        assert any(load > 0 for load in path.load_profile)

    def test_transfer_completes_and_is_reproducible(self):
        a = run_internet_transfer("vegas-1,3", size=kb(128), seed=5)
        b = run_internet_transfer("vegas-1,3", size=kb(128), seed=5)
        assert a.done and b.done
        assert a.throughput_kbps == pytest.approx(b.throughput_kbps)
        assert a.retransmitted_kb == b.retransmitted_kb

    def test_different_seeds_differ(self):
        a = run_internet_transfer("reno", size=kb(128), seed=1)
        b = run_internet_transfer("reno", size=kb(128), seed=2)
        assert a.throughput_kbps != pytest.approx(b.throughput_kbps)


class TestSendbufSweep:
    def test_tiny_buffer_limits_throughput(self):
        tiny = run_solo_transfer("vegas", sndbuf=kb(5))
        full = run_solo_transfer("vegas", sndbuf=kb(50))
        assert tiny.done and full.done
        # 5 KB buffer cannot fill a 20 KB pipe.
        assert tiny.throughput_kbps < full.throughput_kbps


class TestFairnessRuns:
    """§4.3 cohorts: the Figure-5 bottleneck with 20 buffers."""

    SPEC = replace(get_scenario("classic"), buffers=20,
                   transfer_bytes=kb(512), horizon=600.0)

    def test_two_connections_share(self):
        flows = run_cohort(["vegas"] * 2, self.SPEC, seed=0)
        assert len(flows) == 2 and all(flow.done for flow in flows)
        assert jain_fairness_index(
            [flow.throughput_kbps for flow in flows]) > 0.8

    def test_mixed_delays_supported(self):
        near = self.SPEC.access_delay
        flows = run_cohort(["reno"] * 2, self.SPEC, seed=0,
                           access_delays=[near, 2 * near])
        assert all(flow.done for flow in flows)
        with pytest.raises(ValueError, match="access delays"):
            run_cohort(["reno"] * 2, self.SPEC, access_delays=[near])


class TestTelnetResponse:
    def test_samples_collected(self):
        result = run_telnet_response("reno", seed=0, duration=40.0)
        assert result.cc_name == "reno"
        assert len(result.samples) > 5
        assert result.mean > 0
        assert result.p95 >= result.median
