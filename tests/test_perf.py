"""Tests for the perf subsystem and the engine's hot-path mechanics.

Three layers:

* the engine's observers (checker, watchdog, gauges, probe): armed
  alone or together, the same registry cell must produce identical
  metrics and ``events_processed`` (the engine-vs-reference
  differential lives in ``tests/test_engine_differential.py``), and
  the registry that arms them (``repro.sim.observers``) keeps its
  contract: role order, all-or-nothing arming, exact unwinding;
* the hot path's mechanics in isolation (event free list, cancel
  semantics after recycling);
* the :class:`~repro.perf.counters.PerfProbe` counters and the
  ``repro bench`` comparator logic.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.errors import ReproError
from repro.perf import profiling
from repro.perf.bench import SCHEMA_VERSION, compare
from repro.perf.counters import PerfProbe
from repro.sim import observers
from repro.sim.engine import Simulator
from repro.trace.records import Kind
from repro.trace.tracer import ConnectionTracer


# ----------------------------------------------------------------------
# Observers never change the run
# ----------------------------------------------------------------------
OBSERVERS = ("checker", "watchdog", "gauges", "probe")


class TestObserversAreBitIdentical:
    @staticmethod
    def _run_figure6(armed, tmp_path):
        from repro.harness.registry import Cell, run_cell

        kwargs = {
            "checks": "checker" in armed,
            "watchdog": "watchdog" in armed,
            "telemetry": (str(tmp_path / "gauges.jsonl")
                          if "gauges" in armed else None),
        }
        probing = (profiling() if "probe" in armed
                   else contextlib.nullcontext())
        with probing as probe:
            return run_cell(Cell.make("figure6", seed=0), **kwargs), probe

    @pytest.mark.parametrize("armed", [(name,) for name in OBSERVERS]
                             + [OBSERVERS], ids="+".join)
    def test_armed_run_matches_unarmed(self, armed, tmp_path):
        """One loop serves every observer combination: metrics and
        ``events_processed`` are those of the run with none armed."""
        bare, _ = self._run_figure6((), tmp_path)
        metrics, probe = self._run_figure6(armed, tmp_path)
        if "checker" in armed:
            assert metrics.pop("invariant_violations") == 0
        assert metrics == bare
        assert bare["events_processed"] > 0
        if probe is not None:
            assert probe.events == bare["events_processed"]
        if "gauges" in armed:
            assert (tmp_path / "gauges.jsonl").stat().st_size > 0


class _Recording(observers.Instrument):
    """Logs ``(label, hook)`` for every engine call it receives."""

    def __init__(self, label, log):
        self.label = label
        self.log = log

    def register_simulator(self, sim):
        self.log.append((self.label, "register"))

    def on_event(self, sim, fn):
        self.log.append((self.label, "event"))

    def on_run_end(self, sim):
        self.log.append((self.label, "end"))


def _rearm(role, tmp_path):
    """Arm *role* through the public path that builds its instrument."""
    from repro.harness.registry import Cell, run_cell

    if role == "probe":
        with profiling():
            pass  # pragma: no cover
        return
    run_cell(Cell.make("sendbuf", cc="reno", size_kb=5, seed=0), **{
        "checker": {"checks": "raise"},
        "faults": {"faults": "light"},
        "watchdog": {"watchdog": True},
        "gauges": {"telemetry": str(tmp_path / "inner.jsonl")},
    }[role])


class TestInstrumentRegistry:
    """The contract of ``repro.sim.observers``, the one place an
    instrument is armed."""

    def test_engine_calls_in_role_order_whoever_armed_first(self):
        log = []
        with contextlib.ExitStack() as stack:
            for role in reversed(observers.ROLES):
                stack.enter_context(
                    observers.armed(**{role: _Recording(role, log)}))
            assert [inst.label for inst in observers.active()] \
                == list(observers.ROLES)
            sim = Simulator()
            sim.schedule(0.0, lambda: None)
            sim.run()
        assert log == [(role, hook) for hook in ("register", "event", "end")
                       for role in observers.ROLES]
        assert observers.active() == ()

    def test_unknown_role_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown instrument role"):
            with observers.armed(tracer=observers.Instrument()):
                pass  # pragma: no cover
        assert observers.active() == ()

    def test_nesting_unwinds_to_the_outer_set(self):
        outer, inner = observers.Instrument(), observers.Instrument()
        with observers.armed(watchdog=outer):
            with observers.armed(checker=inner):
                assert observers.active() == (inner, outer)
            assert observers.active() == (outer,)
            with pytest.raises(ValueError):
                with observers.armed(probe=inner, checker=inner):
                    raise ValueError("boom")
            assert observers.active() == (outer,)
        assert observers.active() == ()

    @pytest.mark.parametrize("role", observers.ROLES)
    def test_refused_arming_changes_nothing(self, role, tmp_path):
        """Arming an occupied role raises and leaves the outer
        instrument — and everything beside it — armed."""
        outer = {role: observers.Instrument(),
                 "probe" if role != "probe" else "checker":
                     observers.Instrument()}
        with observers.armed(**outer):
            before = observers.active()
            with pytest.raises(RuntimeError, match="is already active"):
                _rearm(role, tmp_path)
            assert observers.active() == before
        assert observers.active() == ()

    def test_binding_is_at_construction(self):
        """An instrument armed after a simulator was built is not
        called by it."""
        log = []
        sim = Simulator()
        with observers.armed(probe=_Recording("late", log)):
            sim.schedule(0.0, lambda: None)
            assert sim.run() == 1
        assert log == []

    def test_armed_observers_forget_closed_connections(self, tmp_path):
        """A tcplib-background cell builds ~2,200 short connections:
        no gauge record may list them all, and the watchdog that drops
        the closed ones still returns the unarmed run's metrics."""
        from repro.harness.registry import Cell, run_cell

        cell = Cell.make("table2", proto="vegas-1,3", buffers=10, seed=0)
        path = tmp_path / "gauges.jsonl"
        armed = run_cell(cell, watchdog=True, telemetry=str(path))
        assert armed == run_cell(cell)
        listed = [len(record["connections"])
                  for record in map(json.loads, path.read_text().splitlines())
                  if record["event"] == "gauge"]
        assert listed and max(listed) <= 500


# ----------------------------------------------------------------------
# Event free list
# ----------------------------------------------------------------------
class TestEventPool:
    def test_fired_event_is_recycled(self):
        sim = Simulator()
        first = sim.schedule(0.0, lambda: None)
        sim.run()
        second = sim.schedule(0.0, lambda: None)
        assert second is first  # came back off the free list
        assert not second.cancelled

    def test_cancelled_event_is_recycled(self):
        sim = Simulator()
        victim = sim.schedule(1.0, lambda: None)
        keeper = []
        sim.schedule(2.0, keeper.append, "ran")
        victim.cancel()
        sim.run()
        assert keeper == ["ran"]
        assert victim in sim._pool

    def test_cancel_after_fire_is_noop(self):
        """A fired handle can be cancelled safely — before reuse."""
        sim = Simulator()
        handle = sim.schedule(0.0, lambda: None)
        later = []
        sim.schedule(1.0, later.append, "ran")
        sim.run(until=0.5)
        handle.cancel()  # already fired: must not disturb pending work
        sim.run()
        assert later == ["ran"]

    def test_callback_may_cancel_its_own_event(self):
        """The recycle happens after dispatch, so self-cancel is safe."""
        sim = Simulator()
        handles = {}

        def self_cancel():
            handles["own"].cancel()

        handles["own"] = sim.schedule(0.0, self_cancel)
        fired = []
        sim.schedule(1.0, fired.append, "after")
        sim.run()
        assert fired == ["after"]

    def test_recycled_events_do_not_leak_args(self):
        sim = Simulator()
        payload = object()
        sim.schedule(0.0, lambda _x: None, payload)
        sim.run()
        assert all(e.fn is None and e.args == () for e in sim._pool)


# ----------------------------------------------------------------------
# Columnar tracer
# ----------------------------------------------------------------------
class TestColumnarTracer:
    def _populated(self):
        tracer = ConnectionTracer("t")
        tracer.record(0.0, Kind.SEND, 100, 512)
        tracer.record(0.1, Kind.CWND, 2048)
        tracer.record(0.2, Kind.SEND, 612, 512)
        return tracer

    def test_records_match_rows(self):
        tracer = self._populated()
        assert [(r.time, r.kind, r.a, r.b) for r in tracer.records] == \
            list(tracer.rows())

    def test_of_kind_and_points_agree(self):
        tracer = self._populated()
        sends = tracer.of_kind(Kind.SEND)
        assert [(r.time, r.a) for r in sends] == tracer.points(Kind.SEND)
        assert [(r.time, r.b) for r in sends] == \
            tracer.points(Kind.SEND, field="b")
        assert tracer.count(Kind.SEND) == 2
        assert tracer.count(Kind.RETX) == 0

    def test_clear_resets_every_column(self):
        tracer = self._populated()
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.records == []
        assert list(tracer.rows()) == []

    def test_disabled_tracer_records_nothing(self):
        tracer = ConnectionTracer("off", enabled=False)
        tracer.record(0.0, Kind.SEND, 1)
        assert len(tracer) == 0

    def test_materialization_is_invalidated_by_writes(self):
        tracer = self._populated()
        assert len(tracer.records) == 3
        tracer.record(0.3, Kind.ACK_RX, 612)
        assert len(tracer.records) == 4


# ----------------------------------------------------------------------
# PerfProbe
# ----------------------------------------------------------------------
class TestPerfProbe:
    def test_counts_dispatched_events(self):
        with profiling() as probe:
            sim = Simulator()
            for i in range(5):
                sim.schedule(float(i), lambda: None)
            processed = sim.run()
        assert probe.events == processed == 5
        assert probe.peak_heap >= 1

    def test_component_counts_use_qualnames(self):
        with profiling() as probe:
            sim = Simulator()
            sim.schedule(0.0, _named_callback)
            sim.schedule(1.0, _named_callback)
            sim.run()
        assert probe.component_counts["_named_callback"] == 2
        assert probe.top_components() == [("_named_callback", 2)]

    def test_phase_accumulates(self):
        probe = PerfProbe()
        with probe.phase("x"):
            pass
        first = probe.phases["x"]
        with probe.phase("x"):
            pass
        assert probe.phases["x"] >= first
        assert probe.events_per_sec("missing") == 0.0

    def test_inactive_probe_costs_nothing(self):
        sim = Simulator()
        assert sim._observers == ()
        sim.schedule(0.0, lambda: None)
        assert sim.run() == 1

    def test_double_activation_rejected(self):
        with profiling() as probe:
            with pytest.raises(RuntimeError, match="already active"):
                with profiling():
                    pass  # pragma: no cover
            assert observers.get("probe") is probe

    def test_note_tracer(self):
        probe = PerfProbe()
        tracer = ConnectionTracer("conn1")
        tracer.record(0.0, Kind.SEND, 1)
        probe.note_tracer(tracer)
        assert probe.snapshot()["tracer_records"] == {"conn1": 1}


def _named_callback():
    pass


# ----------------------------------------------------------------------
# Bench comparator
# ----------------------------------------------------------------------
def _doc(events=1000, peak=20, rate=50_000.0):
    return {
        "schema_version": SCHEMA_VERSION,
        "cells": {"cellA": {"events": events, "peak_heap": peak,
                            "events_per_sec": rate}},
    }


class TestBenchCompare:
    def test_identical_documents_pass(self):
        assert compare(_doc(), _doc()) == []

    def test_event_count_must_match_exactly(self):
        problems = compare(_doc(events=1001), _doc())
        assert len(problems) == 1 and "events = 1001" in problems[0]

    def test_peak_heap_must_match_exactly(self):
        assert compare(_doc(peak=21), _doc())

    def test_timing_regression_fails_gate(self):
        problems = compare(_doc(rate=30_000.0), _doc(rate=50_000.0))
        assert any("events_per_sec" in p for p in problems)

    def test_small_timing_wobble_passes(self):
        assert compare(_doc(rate=45_000.0), _doc(rate=50_000.0)) == []

    def test_timing_gate_can_be_disabled(self):
        assert compare(_doc(rate=1.0), _doc(rate=50_000.0),
                       timing=False) == []

    def test_missing_cell_fails(self):
        current = _doc()
        current["cells"] = {}
        problems = compare(current, _doc())
        assert problems == ["missing bench cell: cellA"]

    def test_new_cell_is_ignored(self):
        current = _doc()
        current["cells"]["brand_new"] = {"events": 1, "peak_heap": 1,
                                         "events_per_sec": 1.0}
        assert compare(current, _doc()) == []


class TestBenchCellDeterminism:
    def test_nondeterministic_counters_raise(self, monkeypatch):
        # The bench protocol reads the event count off the production
        # run's simulator after every timed round; any drift from the
        # warmup round must abort the cell.
        from repro.perf import bench

        counts = iter([100, 101, 100])

        class _FlakySim:
            @property
            def events_processed(self):
                return next(counts)

        sim = _FlakySim()
        monkeypatch.setattr("repro.sim.engine.last_simulator", lambda: sim)
        monkeypatch.setattr("repro.harness.registry.run_cell",
                            lambda cell, checks=False, faults=None: {})
        descriptor = {"name": "flaky",
                      "cell": _NullCell()}
        with pytest.raises(ReproError, match="nondeterministic"):
            bench.run_bench_cell(descriptor, rounds=2)


class _NullCell:
    experiment = "null"


class TestBenchCellSelection:
    def test_none_selects_whole_suite(self):
        from repro.perf import bench

        assert ([d["name"] for d in bench.select_cells(None)]
                == [d["name"] for d in bench.bench_suite()])

    def test_selection_keeps_suite_order(self):
        from repro.perf import bench

        # CLI spelling order must not leak into the artifact.
        names = [d["name"]
                 for d in bench.select_cells(["many_flows_100", "figure6"])]
        assert names == ["figure6", "many_flows_100"]

    def test_unknown_cell_raises(self):
        from repro.perf import bench

        with pytest.raises(ReproError, match="unknown bench cell"):
            bench.select_cells(["figure6", "bogus"])

    def test_update_baseline_refuses_slice(self, tmp_path, capsys):
        # A partial run must never overwrite the full-suite baseline.
        from repro.perf import bench

        rc = bench.main(["--update-baseline", "--cells", "figure6",
                         "--json", str(tmp_path / "b.json")])
        assert rc == 2
        assert "full suite" in capsys.readouterr().err
