"""Tests for the perf subsystem and the engine's hot-path mechanics.

Three layers:

* the engine's observers (checker, watchdog, gauges, probe): armed
  alone or together, the same registry cell must produce identical
  metrics and ``events_processed`` (the engine-vs-reference
  differential lives in ``tests/test_engine_differential.py``), and
  the registry that arms them (``repro.sim.observers``) keeps its
  contract: role order, all-or-nothing arming, exact unwinding;
* the hot path's mechanics in isolation (cancel semantics of fired
  handles);
* the :class:`~repro.perf.counters.PerfProbe` counters, and the exact
  ``events``/``peak_heap`` they read on eight pinned cells — the
  engine's determinism gate.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from repro.perf import profiling
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
# Event handles
# ----------------------------------------------------------------------
class TestEventPool:
    def test_cancel_after_fire_is_noop(self):
        """A fired handle can be cancelled safely."""
        sim = Simulator()
        handle = sim.schedule(0.0, lambda: None)
        later = []
        sim.schedule(1.0, later.append, "ran")
        sim.run(until=0.5)
        handle.cancel()  # already fired: must not disturb pending work
        sim.run()
        assert later == ["ran"]

    def test_callback_may_cancel_its_own_event(self):
        """The handle is dead while its callback runs."""
        sim = Simulator()
        handles = {}

        def self_cancel():
            handles["own"].cancel()

        handles["own"] = sim.schedule(0.0, self_cancel)
        fired = []
        sim.schedule(1.0, fired.append, "after")
        sim.run()
        assert fired == ["after"]
        assert sim.pending_events == 0


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


def _named_callback():
    pass


# ----------------------------------------------------------------------
# Pinned engine counts
# ----------------------------------------------------------------------
BASELINE = Path(__file__).resolve().parents[1] / "baselines" \
    / "bench_baseline.json"

#: name -> (experiment, cell params, run_cell options).  The 500- and
#: 1,000-flow points exercise the far-horizon calendar scheduler; 100
#: stays below its threshold and covers the plain heap.
PINNED_CELLS = {
    "figure6": ("figure6", {"seed": 0}, {}),
    "figure7": ("figure7", {"seed": 0}, {}),
    "table2_background": (
        "table2", {"proto": "vegas-1,3", "buffers": 10, "seed": 0}, {}),
    "table2_faulted": (
        "table2", {"proto": "reno", "buffers": 10, "seed": 0},
        {"faults": "light"}),
    "figure6_checked": ("figure6", {"seed": 0}, {"checks": "raise"}),
    "many_flows_100": ("many_flows", {"flows": 100, "seed": 0}, {}),
    "many_flows_500": ("many_flows", {"flows": 500, "seed": 0}, {}),
    "many_flows_1000": ("many_flows", {"flows": 1000, "seed": 0}, {}),
}


def _pins():
    with open(BASELINE) as handle:
        return json.load(handle)["cells"]


class TestPinnedEngineCounts:
    """``events`` and ``peak_heap`` are pure functions of the simulation,
    so any engine change that moves them on these cells is a behaviour
    change.  A deliberate one re-pins by copying the observed pair from
    the failure message into ``baselines/bench_baseline.json``."""

    def test_baseline_pins_exactly_these_cells(self):
        assert sorted(_pins()) == sorted(PINNED_CELLS)

    @pytest.mark.parametrize("name", list(PINNED_CELLS))
    def test_events_and_peak_heap(self, name):
        from repro.harness.registry import Cell, run_cell

        experiment, params, options = PINNED_CELLS[name]
        with profiling() as probe:
            run_cell(Cell.make(experiment, **params), **options)
        observed = {"events": probe.events, "peak_heap": probe.peak_heap}
        pinned = {key: _pins()[name][key] for key in observed}
        assert observed == pinned, f"{name}: observed {observed}"
