"""Tests for the seeded fault-injection layer.

Covers the plan value object (parsing, profiles, canonical spec
rendering, validation), per-channel injector semantics (drop,
duplicate, reorder, jitter, flap), determinism across runs, and the
integration contract: TCP still completes transfers under faults, and
the invariant checker stays silent while they are injected.
"""

import pytest

from repro.checks import checking
from repro.core.registry import make_cc
from repro.errors import ConfigurationError
from repro.faults import PROFILES, FaultPlan, FaultSession, injecting
from repro.faults.injector import _channel_rng
from repro.units import kb

from helpers import make_pair, run_transfer, run_transfer_and_sink


def _faulted_transfer(spec, cc="reno", nbytes=kb(64), **pair_kwargs):
    """One transfer with *spec* active; returns (session, pair, xfer)."""
    return _faulted_run(spec, cc, nbytes, **pair_kwargs)[:3]


def _faulted_run(spec, cc="reno", nbytes=kb(64), **pair_kwargs):
    """:func:`_faulted_transfer`, plus the sink that accepted the
    server endpoint."""
    with injecting(spec) as session:
        pair = make_pair(**pair_kwargs)
        transfer, sink = run_transfer_and_sink(pair, nbytes, cc=make_cc(cc))
    return session, pair, transfer, sink


class TestFaultPlan:
    def test_parse_key_value_spec(self):
        plan = FaultPlan.parse("drop=0.01,dup=0.005,seed=3")
        assert plan.drop == 0.01
        assert plan.duplicate == 0.005
        assert plan.seed == 3

    def test_parse_profiles(self):
        for name in PROFILES:
            plan = FaultPlan.parse(name)
            assert not plan.is_null()

    def test_key_spelling_normalised(self):
        # Hyphens and underscores are interchangeable; dup is an alias.
        a = FaultPlan.parse("reorder-hold=0.02,jitter_max=0.5,duplicate=0.1")
        b = FaultPlan.parse("reorder_hold=0.02,jitter-max=0.5,dup=0.1")
        assert a == b

    def test_describe_is_canonical(self):
        a = FaultPlan.parse("dup=0.5,drop=0.25")
        b = FaultPlan.parse("drop=0.25,duplicate=0.5")
        assert a.describe() == b.describe() == "drop=0.25,duplicate=0.5"
        assert FaultPlan.parse(a.describe()) == a

    def test_describe_of_default_plan_is_empty(self):
        assert FaultPlan().describe() == ""
        assert FaultPlan().is_null()

    def test_null_plan_detection(self):
        assert FaultPlan.parse("drop=0").is_null()
        assert FaultPlan.parse("reorder-hold=0.5").is_null()  # no trigger
        assert FaultPlan.parse("flap-period=5").is_null()  # never down
        assert not FaultPlan.parse("flap-period=5,flap-down=1").is_null()

    def test_target_filter(self):
        plan = FaultPlan.parse("drop=0.1,target=bottleneck")
        assert plan.matches("bottleneck:R1->R2")
        assert not plan.matches("lan0")
        assert FaultPlan.parse("drop=0.1").matches("anything")

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("drop=1.5")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("dup=-0.1")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("jitter-max=-1")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("flap-period=1,flap-down=2")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("drop=lots")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("seed=x")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("unknown-key=1")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("not-a-profile")


class TestChannelRng:
    def test_streams_are_deterministic(self):
        assert _channel_rng(0, "a").random() == _channel_rng(0, "a").random()

    def test_streams_are_independent(self):
        # Different channels and different seeds draw unrelated
        # streams, so faults on one link never shift another's.
        draws = {_channel_rng(0, "a").random(), _channel_rng(0, "b").random(),
                 _channel_rng(1, "a").random()}
        assert len(draws) == 3


class TestSessionAttachment:
    def test_null_plan_attaches_nothing(self):
        session = FaultSession(FaultPlan())

        class _Chan:
            name = "bottleneck"

        assert session.attach(_Chan()) is None
        assert session.injectors == []

    def test_target_filters_channels(self):
        # Channels are named "<src>-><dst>"; the filter is a substring
        # match, so "R1->" selects only the forward bottleneck hop.
        with injecting("drop=0.1,target=R1->") as session:
            pair = make_pair()
        names = [inj.channel.name for inj in session.injectors]
        assert names == ["R1->R2"]
        run_transfer(pair, kb(8), cc=make_cc("reno"))

    def test_totals_sums_counters(self):
        session, _, _ = _faulted_transfer("drop=0.05,seed=1")
        totals = session.totals()
        assert totals["corrupt_drops"] == sum(
            inj.corrupt_drops for inj in session.injectors)
        assert totals["corrupt_drops"] > 0


class TestInjectionSemantics:
    def test_corruption_drops_slow_the_transfer(self):
        _, _, clean = _faulted_transfer("drop=0")
        session, _, faulted = _faulted_transfer("drop=0.05,seed=1")
        assert clean.done and faulted.done
        assert session.totals()["corrupt_drops"] > 0
        assert faulted.finish_time > clean.finish_time

    def test_drop_everything_stalls(self):
        session, _, transfer = _faulted_transfer(
            "drop=1,target=R1->", nbytes=kb(8))
        assert not transfer.done
        assert session.totals()["corrupt_drops"] > 0

    def test_duplicates_reach_the_receiver(self):
        session, pair, transfer, sink = _faulted_run("dup=0.2,seed=2")
        assert transfer.done
        assert session.totals()["duplicates"] > 0
        assert pair.proto_a.connections == pair.proto_b.connections == {}
        receivers = [conn.recv for conn in [transfer.conn] + sink.connections]
        assert sum(r.duplicate_segments for r in receivers) > 0

    def test_reordering_reaches_the_receiver(self):
        session, pair, transfer, sink = _faulted_run(
            "reorder=0.1,reorder-hold=0.05,seed=3")
        assert transfer.done
        assert session.totals()["reorders"] > 0
        assert pair.proto_a.connections == pair.proto_b.connections == {}
        receivers = [conn.recv for conn in [transfer.conn] + sink.connections]
        assert sum(r.out_of_order_segments for r in receivers) > 0

    def test_jitter_spikes_fire(self):
        session, _, transfer = _faulted_transfer(
            "jitter=0.2,jitter-max=0.05,seed=4")
        assert transfer.done
        assert session.totals()["delay_spikes"] > 0

    def test_flap_schedule_is_deterministic(self):
        plan = FaultPlan.parse("flap-period=5,flap-down=1")
        session = FaultSession(plan)

        class _Chan:
            name = "c"

        injector = session.attach(_Chan())
        assert not injector.is_down(0.0)
        assert not injector.is_down(3.99)
        assert injector.is_down(4.0)
        assert injector.is_down(4.99)
        assert not injector.is_down(5.0)
        assert injector.is_down(9.5)

    def test_flap_drops_packets_while_down(self):
        # A tight schedule (200 ms dark each second) guarantees the
        # transfer overlaps several outages.
        session, _, transfer = _faulted_transfer(
            "flap-period=1,flap-down=0.2", nbytes=kb(128))
        assert session.totals()["flap_drops"] > 0
        assert transfer.done  # retransmissions ride out the outages


class TestDeterminism:
    def test_same_seed_same_faults_same_outcome(self):
        runs = [_faulted_transfer("heavy") for _ in range(2)]
        (s1, p1, t1), (s2, p2, t2) = runs
        assert s1.totals() == s2.totals()
        assert p1.sim.events_processed == p2.sim.events_processed
        assert t1.finish_time == t2.finish_time

    def test_different_seed_different_faults(self):
        s1, _, _ = _faulted_transfer("drop=0.05,seed=1")
        s2, _, _ = _faulted_transfer("drop=0.05,seed=2")
        assert s1.totals() != s2.totals() or \
            s1.injectors[0].rng.random() != s2.injectors[0].rng.random()


class TestFaultsUnderChecks:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_profiles_raise_no_violations(self, profile):
        # The conservation audit accounts for absorbed/duplicated
        # packets, so injected faults must never read as leaks.
        with checking() as chk:
            session, _, transfer = _faulted_transfer(profile, cc="vegas")
        assert chk.violations == []
        assert chk.audits > 0
        assert transfer.done

    def test_session_and_checker_compose_with_reno(self):
        with checking() as chk:
            session, _, transfer = _faulted_transfer("heavy", cc="reno",
                                                     nbytes=kb(128))
        assert chk.violations == []
        assert transfer.done
        assert sum(session.totals().values()) > 0
