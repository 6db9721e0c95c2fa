"""Tests for supervised execution and the liveness watchdog.

Covers the resilience contracts: a hanging cell is killed and
quarantined as ``timeout``, a raising cell as ``crash``, a stalled
flap topology as ``divergence`` — each retried with deterministic
backoff, none of them stopping sibling cells, none of them poisoning
the result cache, and all of them surfacing through the artifact's
``failures`` manifest with distinct exit codes end to end.
"""

import json
import os
import time

import pytest

from repro import cli
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    ReproError,
    SimulationStalled,
)
from repro.harness import (
    FAILURE_KINDS,
    Cell,
    ResultCache,
    build_document,
    load_document,
    register_experiment,
    retry_backoff,
    run_cells,
    unregister_experiment,
    write_document,
)
from repro.harness.supervisor import classify_error
from repro.sim import LivenessWatchdog, Simulator, observers, watching

#: A sub-second real cell that must keep completing next to failures.
CHEAP = Cell.make("sendbuf", cc="reno", size_kb=5, seed=0)
CHEAP2 = Cell.make("sendbuf", cc="vegas", size_kb=5, seed=0)


# ----------------------------------------------------------------------
# Pathological experiments (registered per-test; workers see them via
# the fork start method, which the supervisor prefers on POSIX).
# ----------------------------------------------------------------------

def _hang_cell(seed: int):
    while True:  # pragma: no cover - killed by the supervisor
        time.sleep(0.02)


def _crash_cell(seed: int):
    raise RuntimeError("deliberate crash for the supervisor suite")


def _violate_cell(seed: int):
    raise InvariantViolation("packet-conservation", 1.25, subject="q0",
                             detail="synthetic")


def _stall_cell(seed: int):
    # A flap schedule that never comes up: TCP retransmits into the
    # void while its timers tick simulated time forward — the liveness
    # watchdog must turn this into SimulationStalled, not a spin.
    from repro.experiments.transfers import run_solo_transfer
    from repro.faults import injecting
    from repro.units import kb

    with injecting("flap-period=5,flap-down=5"):
        result = run_solo_transfer("reno", size=kb(64), seed=seed)
    return {"throughput_kbps": result.throughput_kbps}


@pytest.fixture
def pathological_registry():
    names = ("hangx", "crashx", "stallx", "violatex")
    register_experiment("hangx", _hang_cell)
    register_experiment("crashx", _crash_cell)
    register_experiment("stallx", _stall_cell)
    register_experiment("violatex", _violate_cell,
                        grid=lambda quick: [Cell.make("violatex", seed=0)])
    yield
    for name in names:
        unregister_experiment(name)


fork_only = pytest.mark.skipif(
    os.name != "posix", reason="supervised workers need the fork method")


# ----------------------------------------------------------------------
# Taxonomy and backoff
# ----------------------------------------------------------------------

class TestTaxonomy:
    def test_invariant_violation_is_check_violation(self):
        exc = InvariantViolation("positive-cwnd", 2.5, subject="conn",
                                 detail="cwnd=-1")
        kind, message, detail = classify_error(exc)
        assert kind == "check-violation"
        assert detail["invariant"] == "positive-cwnd"
        assert detail["sim_time"] == 2.5
        assert "positive-cwnd" in message

    def test_stall_is_divergence(self):
        exc = SimulationStalled("no-progress", 42.0, stalled_for=30.0,
                                snapshot=[{"flow": "a->b"}])
        kind, message, detail = classify_error(exc)
        assert kind == "divergence"
        assert detail["reason"] == "no-progress"
        assert detail["snapshot"] == [{"flow": "a->b"}]

    def test_everything_else_is_crash(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            kind, message, detail = classify_error(exc)
        assert kind == "crash"
        assert detail["exception"] == "ValueError"
        assert "boom" in detail["traceback"]

    def test_taxonomy_is_closed(self):
        assert set(FAILURE_KINDS) == {
            "timeout", "crash", "divergence", "check-violation",
            "worker-lost"}


class TestBackoff:
    def test_deterministic(self):
        assert retry_backoff("k", 1) == retry_backoff("k", 1)
        assert retry_backoff("k", 1) != retry_backoff("other", 1)

    def test_exponential_envelope_with_jitter(self):
        base = 0.1
        for attempt in (1, 2, 3):
            value = retry_backoff("cell/seed=0", attempt, base)
            lo = base * 2 ** (attempt - 1) * 0.5
            hi = base * 2 ** (attempt - 1) * 1.5
            assert lo <= value < hi


# ----------------------------------------------------------------------
# The liveness watchdog
# ----------------------------------------------------------------------

class _FakeConn:
    """Minimal object satisfying the watchdog's liveness protocol."""

    is_closed = False
    aborted = False

    def __init__(self, unfinished=True):
        self.progress = 0
        self.unfinished = unfinished

    def liveness_progress(self):
        return self.progress

    def has_unfinished_work(self):
        return self.unfinished

    def liveness_snapshot(self):
        return {"flow": "fake", "unfinished": self.unfinished,
                "progress": self.progress}


class TestWatchdog:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            LivenessWatchdog(stall_after=0.0)

    def test_no_progress_raises_with_snapshot(self):
        with watching(stall_after=5.0) as guard:
            sim = Simulator()
            guard.register_connection(_FakeConn(unfinished=True))

            def tick():
                sim.schedule(0.01, tick)

            tick()
            with pytest.raises(SimulationStalled) as info:
                sim.run(until=100.0)
        exc = info.value
        assert exc.reason == "no-progress"
        assert exc.stalled_for >= 5.0
        assert exc.snapshot and exc.snapshot[0]["flow"] == "fake"

    def test_progress_resets_the_window(self):
        with watching(stall_after=5.0) as guard:
            sim = Simulator()
            conn = _FakeConn(unfinished=True)
            guard.register_connection(conn)

            def tick():
                conn.progress += 1          # every event is progress
                sim.schedule(0.01, tick)

            tick()
            sim.run(until=20.0)             # no stall despite unfinished
            conn.unfinished = False
            sim.run(until=20.0)

    def test_queue_drained_raises(self):
        with watching(stall_after=60.0) as guard:
            sim = Simulator()
            guard.register_connection(_FakeConn(unfinished=True))
            sim.schedule(0.5, lambda: None)
            with pytest.raises(SimulationStalled) as info:
                sim.run(until=100.0)
        assert info.value.reason == "queue-drained"

    def test_finished_work_never_stalls(self):
        with watching(stall_after=1.0) as guard:
            sim = Simulator()
            guard.register_connection(_FakeConn(unfinished=False))
            sim.schedule(0.5, lambda: None)
            sim.run(until=100.0)            # drains quietly: nothing owed

    def test_cleanly_closed_connections_are_forgotten(self):
        """Closed and not aborted leaves the scan; its progress joins a
        retired total so the sum never steps back.  Aborted stays."""
        guard = LivenessWatchdog()
        done, dead = _FakeConn(unfinished=False), _FakeConn()
        done.progress, done.is_closed = 7, True
        dead.progress, dead.is_closed, dead.aborted = 3, True, True
        guard.register_connection(done)
        guard.register_connection(dead)
        assert guard._progress() == 10
        guard._retire()
        assert guard._connections == [dead]
        assert guard._progress() == 10

    def test_stalled_flap_transfer_raises_typed_error(self):
        with watching(stall_after=10.0):
            with pytest.raises(SimulationStalled) as info:
                _stall_cell(seed=0)
        exc = info.value
        assert exc.reason == "no-progress"
        snap = exc.snapshot
        assert snap, "stall must snapshot per-connection state"
        entry = snap[0]
        for field in ("flow", "state", "snd_una", "snd_nxt", "outstanding",
                      "rexmt_timer_ticks", "consecutive_timeouts"):
            assert field in entry
        assert entry["unfinished"]

    def test_clean_run_bit_identical_with_watchdog_on(self):
        from repro.experiments.transfers import run_solo_transfer
        from repro.sim import engine
        from repro.units import kb

        plain = run_solo_transfer("vegas", size=kb(128), seed=0)
        plain_events = engine.last_simulator().events_processed
        with watching(stall_after=5.0):
            guarded = run_solo_transfer("vegas", size=kb(128), seed=0)
        guarded_events = engine.last_simulator().events_processed
        assert plain.throughput_kbps == guarded.throughput_kbps
        assert plain_events == guarded_events

    def test_activation_is_exclusive_and_idempotent(self):
        with watching(stall_after=1.0) as guard:
            with pytest.raises(RuntimeError, match="already active"):
                with watching(LivenessWatchdog()):
                    pass  # pragma: no cover
            assert observers.get("watchdog") is guard
        assert observers.get("watchdog") is None


# ----------------------------------------------------------------------
# Supervised execution
# ----------------------------------------------------------------------

@fork_only
class TestSupervisedExecution:
    def _sweep(self, cells, **kwargs):
        kwargs.setdefault("jobs", 3)
        kwargs.setdefault("timeout_s", 5.0)
        kwargs.setdefault("retries", 1)
        kwargs.setdefault("backoff_base", 0.01)
        return run_cells(cells, **kwargs)

    def test_hang_crash_stall_quarantined_siblings_complete(
            self, pathological_registry):
        cells = [CHEAP, Cell.make("hangx", seed=0),
                 Cell.make("crashx", seed=0), Cell.make("stallx", seed=0),
                 CHEAP2]
        report = self._sweep(cells, timeout_s=2.0, watchdog=5.0)

        assert sorted(r.key for r in report.results) == sorted(
            [CHEAP.key, CHEAP2.key])
        kinds = {f.key: f.kind for f in report.failures}
        assert kinds == {"hangx/seed=0": "timeout",
                         "crashx/seed=0": "crash",
                         "stallx/seed=0": "divergence"}
        assert not report.ok
        for failure in report.failures:
            assert failure.attempts == 2          # initial + one retry
            assert len(failure.attempt_log) == 2
            assert failure.attempt_log[0]["backoff_s"] > 0

    def test_supervised_results_match_unsupervised(self):
        supervised = self._sweep([CHEAP, CHEAP2])
        plain = run_cells([CHEAP, CHEAP2], jobs=1)
        assert [r.metrics for r in supervised.results] == \
            [r.metrics for r in plain.results]
        assert supervised.ok and plain.ok

    def test_check_violation_kind(self, pathological_registry):
        report = self._sweep([Cell.make("violatex", seed=0)], retries=0)
        (failure,) = report.failures
        assert failure.kind == "check-violation"
        assert failure.detail["invariant"] == "packet-conservation"

    def test_crash_detail_carries_traceback(self, pathological_registry):
        report = self._sweep([Cell.make("crashx", seed=0)], retries=0)
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert "deliberate crash" in failure.message
        assert "RuntimeError" in failure.detail["traceback"]

    def test_failures_never_poison_the_cache(self, pathological_registry,
                                             tmp_path):
        cache = ResultCache(tmp_path, "deadbeef" * 8)
        crash = Cell.make("crashx", seed=0)
        report = self._sweep([CHEAP, crash], retries=0, cache=cache)
        assert [f.key for f in report.failures] == [crash.key]
        assert cache.get(crash.key) is None
        assert cache.get(CHEAP.key) is not None

        # A later sweep serves the good cell from cache and re-attempts
        # the quarantined one rather than replaying its failure.
        again = self._sweep([CHEAP, crash], retries=0, cache=cache)
        assert again.cache_hits == 1
        assert [f.key for f in again.failures] == [crash.key]

    def test_timeout_kills_promptly(self, pathological_registry):
        started = time.perf_counter()
        report = self._sweep([Cell.make("hangx", seed=0)],
                             timeout_s=0.5, retries=0, jobs=1)
        elapsed = time.perf_counter() - started
        (failure,) = report.failures
        assert failure.kind == "timeout"
        assert failure.detail["timeout_s"] == 0.5
        assert elapsed < 10.0, "termination must not wait out the hang"

    def test_bad_supervision_parameters(self):
        with pytest.raises(ValueError):
            run_cells([CHEAP], jobs=1, timeout_s=-1.0)
        with pytest.raises(ValueError):
            run_cells([CHEAP], jobs=1, timeout_s=1.0, retries=-1)


# ----------------------------------------------------------------------
# Artifact failures section and the regression checker's exit codes
# ----------------------------------------------------------------------

def _failure_doc(base_doc, key="sendbuf/cc=reno/seed=0/size_kb=5",
                 kind="timeout"):
    doc = json.loads(json.dumps(base_doc))
    doc["schema_version"] = "repro-harness/v3"
    doc["cells"] = [c for c in doc["cells"] if c["key"] != key]
    doc["failures"] = [{
        "key": key, "experiment": key.split("/")[0], "kind": kind,
        "message": "synthetic failure", "attempts": 2, "wall_clock_s": 1.0,
        "detail": {}, "attempt_log": [],
    }]
    doc["run"]["failed"] = 1
    return doc


def _base_doc(metric=100.0):
    return {
        "schema_version": "repro-harness/v3",
        "mode": "quick",
        "src_hash": "x",
        "run": {"jobs": 1, "cache_hits": 0, "cache_misses": 1, "cells": 1,
                "failed": 0, "elapsed_s": 0.0, "cell_wall_clock_s": 0.0},
        "cells": [{
            "key": "sendbuf/cc=reno/seed=0/size_kb=5",
            "experiment": "sendbuf",
            "params": {"cc": "reno", "seed": 0, "size_kb": 5},
            "metrics": {"throughput_kbps": metric},
            "wall_clock_s": 0.1,
            "cached": False,
        }],
        "failures": [],
    }


class TestFailureManifest:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    @fork_only
    def test_document_carries_sorted_failures(self, pathological_registry):
        cells = [Cell.make("crashx", seed=0), CHEAP]
        report = run_cells(cells, jobs=2, timeout_s=5.0, retries=0,
                           backoff_base=0.01)
        doc = build_document(report, mode="quick", src_hash="abc")
        assert doc["run"]["failed"] == 1
        (failure,) = doc["failures"]
        assert failure["key"] == "crashx/seed=0"
        assert failure["kind"] == "crash"
        assert failure["attempts"] == 1

    @pytest.mark.parametrize("version", ["repro-harness/v1",
                                         "repro-harness/v2"])
    def test_older_schema_versions_are_refused(self, tmp_path, version):
        doc = _base_doc()
        doc["schema_version"] = version
        path = self._write(tmp_path, "old.json", doc)
        with pytest.raises(ReproError, match=version):
            load_document(path)

    def test_roundtrip_with_failures(self, tmp_path):
        doc = _failure_doc(_base_doc())
        path = str(tmp_path / "doc.json")
        write_document(path, doc)
        assert load_document(path) == doc

    def test_check_exit_3_on_failed_baseline_cell(self, tmp_path, capsys):
        results = self._write(tmp_path, "r.json", _failure_doc(_base_doc()))
        expected = self._write(tmp_path, "e.json", _base_doc())
        assert cli.main(["check", results, expected]) == 3
        out = capsys.readouterr().out
        assert "failed cell" in out and "[timeout]" in out
        # Quarantined cells are reported once, not again as missing.
        assert "missing cell" not in out

    def test_check_exit_1_on_plain_drift(self, tmp_path):
        results = self._write(tmp_path, "r.json", _base_doc(metric=200.0))
        expected = self._write(tmp_path, "e.json", _base_doc(metric=100.0))
        assert cli.main(["check", results, expected, "--tolerance", "0.15"]) == 1

    def test_check_failures_dominate_drift(self, tmp_path):
        results_doc = _failure_doc(_base_doc())
        results_doc["cells"] = _base_doc(metric=500.0)["cells"]
        results_doc["cells"][0]["key"] = "other/seed=0"
        expected_doc = _base_doc(metric=100.0)
        expected_doc["cells"].append(
            dict(expected_doc["cells"][0], key="other/seed=0"))
        results = self._write(tmp_path, "r.json", results_doc)
        expected = self._write(tmp_path, "e.json", expected_doc)
        assert cli.main(["check", results, expected]) == 3

    def test_non_baseline_failures_do_not_gate(self, tmp_path):
        # A quarantined cell outside the baseline (new experiment) is
        # reported by run-all but must not fail the baseline check.
        results_doc = _base_doc()
        results_doc["failures"] = _failure_doc(
            _base_doc(), key="newexp/seed=0")["failures"]
        results = self._write(tmp_path, "r.json", results_doc)
        expected = self._write(tmp_path, "e.json", _base_doc())
        assert cli.main(["check", results, expected]) == 0


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

@fork_only
class TestCli:
    def test_run_all_exit_3_and_manifest(self, pathological_registry,
                                         tmp_path, capsys):
        path = str(tmp_path / "results.json")
        code = cli.main(["run-all", "--experiments", "violatex",
                         "--timeout", "10", "--retries", "0",
                         "--no-cache", "--jobs", "1", "--json", path])
        assert code == 3
        out = capsys.readouterr().out
        assert "quarantined" in out and "--no-timeout" in out
        doc = load_document(path)
        assert doc["run"]["failed"] == 1
        assert doc["failures"][0]["kind"] == "check-violation"

    def test_only_selects_one_cell(self, tmp_path, capsys):
        path = str(tmp_path / "one.json")
        code = cli.main(["run-all", "--only", CHEAP.key, "--no-timeout",
                         "--no-cache", "--jobs", "1", "--json", path])
        assert code == 0
        doc = load_document(path)
        assert [c["key"] for c in doc["cells"]] == [CHEAP.key]

    def test_only_rejects_unknown_key(self, capsys):
        assert cli.main(["run-all", "--only", "nosuch/seed=9",
                         "--no-cache"]) == 2
        assert "matches no cell" in capsys.readouterr().err

    def test_no_timeout_propagates_raw_errors(self, pathological_registry):
        # Reproducing a quarantined cell: without supervision the raw
        # exception surfaces in-process, debugger-ready.
        with pytest.raises(InvariantViolation):
            run_cells([Cell.make("violatex", seed=0)], jobs=1)

    def test_bad_flags_exit_2(self, capsys):
        assert cli.main(["run-all", "--timeout", "0", "--no-cache"]) == 2
        assert cli.main(["run-all", "--retries", "-1", "--no-cache"]) == 2


# ----------------------------------------------------------------------
# Timing discipline (satellite): no drift-sensitive time.time() in src
# ----------------------------------------------------------------------

def test_no_wall_drift_timing_in_src():
    import repro

    root = os.path.dirname(repro.__file__)
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as handle:
                if "time.time()" in handle.read():
                    offenders.append(os.path.relpath(path, root))
    assert not offenders, (
        f"wall-clock timing must use time.perf_counter(), found "
        f"time.time() in: {offenders}")


class TestFaultSpecValidation:
    def test_unknown_key_names_the_token(self):
        with pytest.raises(ValueError, match="frobnicate"):
            from repro.faults.plan import FaultPlan
            FaultPlan.parse("frobnicate=0.5")

    def test_out_of_range_probability_names_the_token(self):
        from repro.faults.plan import FaultPlan

        with pytest.raises(ValueError, match="dup=5"):
            FaultPlan.parse("dup=5")
        with pytest.raises(ValueError, match=r"probability.*\[0, 1\]"):
            FaultPlan.parse("drop=1.5")

    def test_negative_duration_names_the_token(self):
        from repro.faults.plan import FaultPlan

        with pytest.raises(ValueError, match="jitter-max=-1"):
            FaultPlan.parse("jitter-max=-1")

    def test_errors_are_both_valueerror_and_configurationerror(self):
        from repro.faults.plan import FaultPlan

        with pytest.raises(ConfigurationError):
            FaultPlan.parse("drop=2")
        with pytest.raises(ValueError):
            FaultPlan.parse("drop=2")
