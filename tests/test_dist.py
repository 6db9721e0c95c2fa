"""Tests for the fault-tolerant distributed sweep backend.

Covers the robustness contracts of :mod:`repro.harness.dist`: leases
expire and re-queue, dead workers are declared ``worker-lost`` and
their cells retried on respawned workers, stale results never settle
(no cache poisoning), a killed sweep re-run from the cache executes
only the cells it had not finished, the drain path flushes partial
results, zero reachable workers degrades to local workers on the same
lease table and socket, a worker that dies under its cell is that
cell's ``crash`` — and a ``--bind``
sweep's artifact carries the same cells fingerprint, retry schedule and
failure records as a ``--jobs`` one, because both are this master.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ReproError
from repro.harness import (
    LeaseTable,
    build_document,
    cells_fingerprint,
    retry_backoff,
    run_cells,
    run_supervised,
)
from repro.harness.cache import ResultCache
from repro.harness.dist import master as master_mod
from repro.harness.dist import protocol
from repro.harness.dist.chaos import CHAOS_EXPERIMENT
from repro.harness.dist.master import run_distributed
from repro.harness.registry import (
    Cell,
    cell_budget,
    register_experiment,
    unregister_experiment,
)
from repro.harness.supervisor import execute_cell
from repro.obs import load_events

posix_only = pytest.mark.skipif(
    os.name != "posix", reason="dist worker-failure tests use signals")

PRELOAD = ["repro.harness.dist.chaos"]

#: Fast master tuning shared by the integration tests.
FAST = dict(heartbeat_interval_s=0.1, heartbeat_misses=4,
            backoff_base=0.01, lease_grace_s=0.3)

#: The same tuning as ``dist_options`` for run_cells, which forwards
#: ``backoff_base`` itself.
FAST_OPTS = {k: v for k, v in FAST.items() if k != "backoff_base"}


def chaos(mode, **params):
    return Cell.make(CHAOS_EXPERIMENT, mode=mode, **params)


def _src_dir():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_src_dir()] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                        else []))
    return env


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_round_trip(self):
        msg = protocol.result("w1", "L3", "k", {"m": 1.5}, 0.25)
        assert protocol.decode(protocol.encode(msg)) == msg

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'{"no": "type"}\n')

    def test_encode_is_wire_safe_for_arbitrary_detail(self):
        # Failure detail may carry arbitrary diagnostic objects.
        msg = protocol.fail("w1", "L1", "k", "crash", "boom",
                            {"obj": object()}, 0.0)
        assert b"crash" in protocol.encode(msg)

    def test_grant_cell_round_trip(self):
        cell = Cell.make("table2", proto="reno", buffers=10, seed=0)
        msg = protocol.decode(protocol.encode(
            protocol.grant("L1", cell, 1, 60.0)))
        assert protocol.cell_from_grant(msg) == cell

    def test_hello_version_gate(self):
        ok = protocol.hello("w9", 123)
        assert protocol.check_hello(ok) == "w9"
        stale = dict(ok, version="repro-dist/v0")
        with pytest.raises(protocol.ProtocolError, match="mixed checkouts"):
            protocol.check_hello(stale)
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello(dict(ok, worker_id=""))


def _worker_against(grant):
    """Attach ``repro dist worker`` to a fake master that answers its
    hello with *grant* (and any report with ``shutdown``); return the
    worker's exit code, its stderr and what it reported, if anything."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(60)
        port = listener.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "dist", "worker",
             "--connect", f"127.0.0.1:{port}"],
            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            peer, _ = listener.accept()
            report = None
            with peer, peer.makefile("rb") as lines:
                assert protocol.decode(lines.readline())["type"] == "hello"
                peer.sendall(json.dumps(grant).encode() + b"\n")
                for line in lines:
                    message = protocol.decode(line)
                    if message["type"] != "heartbeat":
                        report = message
                        peer.sendall(protocol.encode(protocol.shutdown()))
                        break
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return proc.returncode, stderr, report


def _sendbuf_grant(**options):
    """A well-formed grant for a sub-second cell, with *options* over
    its run options."""
    cell = Cell.make("sendbuf", cc="reno", seed=0, size_kb=50)
    return {**protocol.grant("L1", cell, 1, 60.0), **options}


class TestHostileMaster:
    """A worker checks what a master grants it: a malformed grant is a
    typed error (exit 2, ``error: …``), never a traceback."""

    @pytest.mark.parametrize("grant", [
        {"type": "grant", "lease_id": "L1"},
        {"type": "grant", "lease_id": "L1", "experiment": "table2",
         "key": "table2", "params": [1]},
        {"type": "grant", "lease_id": 7, "experiment": "table2",
         "key": "table2", "params": {}},
        {"type": "grant", "lease_id": "L1", "experiment": None,
         "key": "table2", "params": {}},
        _sendbuf_grant(faults=3),
        _sendbuf_grant(checks=[1]),
        _sendbuf_grant(telemetry=12345),
    ], ids=["fields-missing", "params-a-list", "lease-id-a-number",
            "experiment-null", "faults-a-number", "checks-a-list",
            "telemetry-a-number"])
    def test_malformed_grant_is_a_typed_error(self, grant):
        code, stderr, report = _worker_against(grant)
        assert code == 2, stderr
        assert stderr.startswith("error: malformed grant"), stderr
        assert "Traceback" not in stderr
        assert report is None

    def test_run_options_are_checked_before_the_cell_runs(self):
        cell = Cell.make("sendbuf", cc="reno", seed=0, size_kb=50)
        for options in ({}, {"checks": "collect", "watchdog": 30.0},
                        {"checks": True, "watchdog": True, "faults": "x",
                         "telemetry": "t.jsonl"}, {"watchdog": None}):
            assert protocol.cell_from_grant(_sendbuf_grant(**options)) == cell
        for options in ({"checks": "raise"}, {"checks": None},
                        {"watchdog": -1}, {"watchdog": float("nan")},
                        {"watchdog": float("inf")}, {"watchdog": "30"}):
            with pytest.raises(protocol.ProtocolError, match="mistyped"):
                protocol.cell_from_grant(_sendbuf_grant(**options))

    def test_unknown_experiment_comes_back_as_a_fail_report(self):
        cell = Cell.make("no-such-experiment", seed=0)
        code, stderr, report = _worker_against(
            protocol.grant("L1", cell, 1, 60.0))
        assert code == 0, stderr
        assert (report["type"], report["lease_id"], report["key"]) == (
            "fail", "L1", cell.key)


# ----------------------------------------------------------------------
# Lease table (pure state machine, fake clock, no processes)
# ----------------------------------------------------------------------

class TestLeaseTable:
    def _table(self, cells=2, timeout_s=10.0, retries=1, **kw):
        cs = [chaos("ok", seed=i) for i in range(cells)]
        return LeaseTable(cs, timeout_s=timeout_s, retries=retries,
                          backoff_base=0.05, lease_grace_s=1.0, **kw)

    def test_grants_longest_declared_budget_first(self):
        # Longest-first packing: a 1,000-flow cell granted FIFO-last
        # was the straggler tail of every dist sweep (ROADMAP PR 9
        # headroom).  The pending queue orders by declared cell_budget
        # descending, so the big cells lease out first.
        small = [chaos("ok", seed=i) for i in range(2)]      # 10s default
        big = Cell.make("many_flows", flows=1000, seed=0)     # 1200s hint
        medium = Cell.make("many_flows", flows=200, seed=0)   # 240s hint
        table = LeaseTable(small + [medium, big], timeout_s=10.0,
                           retries=0, lease_grace_s=1.0)
        granted = [table.grant(f"w{i}", now=0.0).task.cell
                   for i in range(4)]
        assert granted[0] == big
        assert granted[1] == medium
        # Equal budgets keep their submission order (stable sort).
        assert granted[2:] == small

    def test_unsupervised_queue_keeps_submission_order(self):
        cells = [chaos("ok", seed=i) for i in range(3)]
        table = LeaseTable(cells, timeout_s=None, retries=0)
        assert [t.cell for t in table.pending] == cells

    def test_grant_sizes_deadline_from_budget_plus_grace(self):
        table = self._table(timeout_s=10.0)
        lease = table.grant("w1", now=100.0)
        assert lease.budget_s == 10.0
        assert lease.deadline == pytest.approx(111.0)  # budget + grace

    def test_settle_ok_completes_the_cell(self):
        table = self._table(cells=1)
        lease = table.grant("w1", now=0.0)
        task = table.settle_ok(lease.lease_id, "w1", {"m": 1.0}, 0.5)
        assert task is not None and task.attempts == 1
        assert table.done and len(table.successes) == 1

    def test_fail_retries_with_deterministic_backoff_then_quarantines(self):
        table = self._table(cells=1, retries=1)
        lease = table.grant("w1", now=0.0)
        settled = table.settle_fail(lease.lease_id, "w1", "crash", "boom",
                                    {}, 0.1, now=5.0)
        task, (action, backoff) = settled
        assert action == "retry"
        assert backoff == pytest.approx(retry_backoff(task.key, 1, 0.05))
        assert task.not_before == pytest.approx(5.0 + backoff)
        # Second failure exhausts the retry budget.
        lease = table.grant("w2", now=task.not_before + 0.01)
        _, (action, _) = table.settle_fail(lease.lease_id, "w2", "crash",
                                           "boom again", {}, 0.1, now=6.0)
        assert action == "quarantine"
        assert table.failures[0].kind == "crash"
        assert table.failures[0].attempts == 2
        assert len(table.failures[0].attempt_log) == 2

    def test_backoff_gates_the_queue(self):
        table = self._table(cells=1, retries=2)
        lease = table.grant("w1", now=0.0)
        task, _ = table.settle_fail(lease.lease_id, "w1", "crash", "x",
                                    {}, 0.0, now=10.0)
        assert table.next_due(now=10.0) is None       # gate closed
        assert table.next_due(now=task.not_before) is task

    def test_expiry_requeues_as_timeout_and_stale_result_is_dropped(self):
        table = self._table(cells=1, timeout_s=5.0, retries=1)
        lease = table.grant("w1", now=0.0)
        assert table.expired(now=5.9) == []           # inside grace
        assert table.expired(now=6.1) == [lease]
        action, _ = table.expire(lease, now=6.1)
        assert action == "retry"
        assert table.expired_leases == 1
        assert lease.task.attempt_log[0]["kind"] == "timeout"
        # The worker finishes late: its result must NOT settle the cell
        # (the cell may already be running elsewhere) — this is the
        # no-cache-poisoning guarantee at the lease layer.
        assert table.settle_ok(lease.lease_id, "w1", {"m": 1.0}, 9.0) is None
        assert table.stale_results == 1
        assert not table.successes

    def test_result_from_wrong_worker_is_stale(self):
        table = self._table(cells=1)
        lease = table.grant("w1", now=0.0)
        assert table.settle_ok(lease.lease_id, "w2", {"m": 1.0}, 0.1) is None
        assert table.stale_results == 1
        # The true holder still settles fine.
        assert table.settle_ok(lease.lease_id, "w1", {"m": 1.0}, 0.1)

    def test_revoke_worker_uses_worker_lost_kind(self):
        table = self._table(cells=2, retries=0)
        l1 = table.grant("w1", now=0.0)
        l2 = table.grant("w1", now=0.0)
        revoked = table.revoke_worker("w1", "heartbeat silence", now=1.0)
        assert {lease.lease_id for lease, _ in revoked} == {l1.lease_id,
                                                            l2.lease_id}
        assert all(kind == "quarantine" for _, (kind, _) in revoked)
        assert {f.kind for f in table.failures} == {"worker-lost"}
        assert not table.leases

    def test_grace_zero_expires_exactly_at_the_budget(self):
        # The fork transport's table: no wire to cross, so no grace.
        table = LeaseTable([chaos("ok", seed=0)], timeout_s=5.0, retries=0)
        lease = table.grant("w1", now=100.0)
        assert lease.deadline == pytest.approx(105.0)
        assert table.expired(now=104.99) == []
        assert table.expired(now=105.0) == [lease]
        action, _ = table.expire(lease, now=105.0)
        assert action == "quarantine"
        (failure,) = table.failures
        assert failure.kind == "timeout"
        assert failure.wall_clock_s == 5.0
        # Every lease names its worker.
        assert failure.detail == {"timeout_s": 5.0, "worker": "w1"}
        assert failure.message.endswith("on worker w1")

    def test_lease_settles_with_its_worker_provenance(self):
        table = LeaseTable([chaos("ok", seed=0)], timeout_s=5.0, retries=0)
        lease = table.grant("w1", now=0.0)
        # Another worker cannot settle it.
        assert table.settle_ok(lease.lease_id, "w2", {"m": 1.0}, 0.1) is None
        result = table.settle_ok(lease.lease_id, "w1", {"m": 1.0}, 0.1)
        assert result.worker == "w1" and result.attempts == 1
        assert table.successes == [result] and table.done

    def test_table_carries_attempts_across_transports(self):
        # What degrading relies on: a worker-lost attempt settled under
        # the socket transport's grace still counts once grace is 0.
        table = LeaseTable([chaos("ok", seed=0)], timeout_s=5.0, retries=1,
                           backoff_base=0.05, lease_grace_s=1.0)
        table.grant("w1", now=0.0)
        ((lease, (action, backoff)),) = table.revoke_worker(
            "w1", "connection closed", now=1.0)
        assert action == "retry"
        table.lease_grace_s = 0.0
        assert table.grant("w2", now=1.0) is None       # backoff gate
        retry = table.grant("w2", now=1.0 + backoff)
        assert retry.attempt == 2 and retry.task is lease.task
        assert retry.deadline == pytest.approx(1.0 + backoff + 5.0)
        table.settle_fail(retry.lease_id, "w2", "crash", "boom", {}, 0.1,
                          now=2.0)
        (failure,) = table.failures
        assert failure.attempts == 2
        assert [e["kind"] for e in failure.attempt_log] == [
            "worker-lost", "crash"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LeaseTable([], timeout_s=10.0, retries=-1)
        with pytest.raises(ValueError):
            LeaseTable([], timeout_s=0.0, retries=1)


# ----------------------------------------------------------------------
# Per-cell budgets (a record's ``budget`` sizes its leases)
# ----------------------------------------------------------------------

class TestTimeoutHints:
    def test_many_flows_declares_its_own_budget(self):
        big = Cell.make("many_flows", flows=1000, seed=0)
        small = Cell.make("many_flows", flows=10, seed=0)
        assert cell_budget(big, 1.0) == pytest.approx(1200.0)
        assert cell_budget(big, 120.0) == pytest.approx(1200.0)
        # Budgets only widen: the quick cell keeps the sweep deadline.
        assert cell_budget(small, 120.0) == 180.0
        assert cell_budget(big, None) is None

    def test_hint_never_shrinks_the_global_timeout(self):
        cell = Cell.make("many_flows", flows=10, seed=0)
        assert cell_budget(cell, 500.0) == 500.0

    def test_lease_budget_uses_the_hint(self):
        table = LeaseTable([Cell.make("many_flows", flows=1000, seed=0)],
                           timeout_s=120.0, retries=0, lease_grace_s=2.0)
        lease = table.grant("w1", now=0.0)
        assert lease.budget_s == pytest.approx(1200.0)
        assert lease.deadline == pytest.approx(1202.0)

    def test_runtime_registration_round_trip(self):
        from repro.harness.registry import RECORDS

        register_experiment("hintx", lambda seed: {"m": 0.0}, budget=77.0)
        try:
            assert cell_budget(Cell.make("hintx", seed=0), 10.0) == 77.0
        finally:
            unregister_experiment("hintx")
        assert "hintx" not in RECORDS  # unregister drops the whole record

    @pytest.mark.parametrize("hint, match", [
        (lambda params: 1 / 0, "raised ZeroDivisionError"),
        (lambda params: float("nan"), "invalid budget"),
        (lambda params: -5.0, "invalid budget"),
        (0.0, "invalid budget"),
        (lambda params: "soon", "non-numeric budget"),
    ])
    def test_bad_hints_raise_a_clear_error_naming_the_experiment(
            self, hint, match):
        # A raising / negative / NaN budget used to pass through
        # unvalidated and crash the supervisor or dist master
        # mid-sweep; now it's a typed ReproError at use time.
        register_experiment("badhint", lambda seed: {"m": 0.0}, budget=hint)
        cell = Cell.make("badhint", seed=0)
        try:
            with pytest.raises(ReproError, match=match) as excinfo:
                cell_budget(cell, 10.0)
            assert "badhint" in str(excinfo.value)
        finally:
            unregister_experiment("badhint")

    def test_bad_hint_fails_fast_when_building_the_lease_table(self):
        register_experiment("badhint2", lambda seed: {"m": 0.0},
                            budget=lambda params: float("nan"))
        try:
            with pytest.raises(ReproError, match="badhint2"):
                LeaseTable([Cell.make("badhint2", seed=0)],
                           timeout_s=10.0, retries=0)
        finally:
            unregister_experiment("badhint2")


# ----------------------------------------------------------------------
# End-to-end worker-failure modes (chaos cells, real processes)
# ----------------------------------------------------------------------

@posix_only
class TestDistExecution:
    def test_clean_sweep_records_worker_provenance(self):
        cells = [chaos("ok", seed=s) for s in range(4)]
        ok, fail, interrupted = run_distributed(
            cells, timeout_s=30.0, retries=1, workers=2, preload=PRELOAD,
            **FAST)
        assert not fail and not interrupted
        assert sorted(r.key for r in ok) == sorted(c.key for c in cells)
        assert all(r.worker for r in ok)
        assert all(r.attempts == 1 and not r.attempt_log for r in ok)

    def test_os_exit_mid_cell_is_the_cells_crash_and_siblings_complete(self):
        # The worker was the master's own fork and it exited by itself:
        # the process death is the cell's, exit code and all.
        cells = [chaos("exit", seed=0), chaos("ok", seed=1)]
        ok, fail, _ = run_distributed(
            cells, timeout_s=30.0, retries=1, workers=2, preload=PRELOAD,
            **FAST)
        assert [r.key for r in ok] == [chaos("ok", seed=1).key]
        (failure,) = fail
        assert failure.kind == "crash"
        assert failure.attempts == 2          # retried on a respawn first
        assert failure.message == ("worker exited with code 42 "
                                   "before reporting")
        assert failure.detail == {"exitcode": 42}
        assert all(e["kind"] == "crash" for e in failure.attempt_log)

    def test_flaky_cell_retries_on_deterministic_backoff(self, tmp_path):
        cell = chaos("flaky", seed=0, scratch=str(tmp_path))
        ok, fail, _ = run_distributed(
            [cell], timeout_s=30.0, retries=1, workers=1, preload=PRELOAD,
            **FAST)
        assert not fail
        (record,) = ok
        assert record.attempts == 2
        (first,) = record.attempt_log
        assert first["kind"] == "crash"
        assert first["backoff_s"] == round(
            retry_backoff(cell.key, 1, FAST["backoff_base"]), 6)

    def test_sleep_past_lease_budget_expires_as_timeout(self):
        cells = [chaos("sleep", delay=30.0, seed=0)]
        ok, fail, _ = run_distributed(
            cells, timeout_s=0.5, retries=0, workers=1, preload=PRELOAD,
            **FAST)
        assert not ok
        (failure,) = fail
        assert failure.kind == "timeout"
        assert "lease expired" in failure.message

    def test_heartbeat_silence_is_worker_lost(self):
        cells = [chaos("stop", seed=0)]                # SIGSTOPs itself
        started = time.monotonic()
        ok, fail, _ = run_distributed(
            cells, timeout_s=60.0, retries=0, workers=1, preload=PRELOAD,
            **FAST)
        assert not ok
        (failure,) = fail
        assert failure.kind == "worker-lost"
        assert "heartbeat" in failure.message
        # Detected by beat silence (~0.4s), not the 60s cell budget.
        assert time.monotonic() - started < 30.0

    def test_quarantined_cells_never_reach_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), "hash")
        cells = [chaos("crash", seed=0), chaos("ok", seed=1)]
        report = run_cells(cells, jobs=1, cache=cache, backend="dist",
                           timeout_s=30.0, retries=0,
                           dist_options=dict(workers=1, preload=PRELOAD,
                                             **FAST_OPTS))
        assert [f.kind for f in report.failures] == ["crash"]
        assert cache.get(chaos("crash", seed=0).key) is None
        assert cache.get(chaos("ok", seed=1).key) is not None

    def test_degrades_to_local_pool_when_no_worker_reachable(self, tmp_path):
        cells = [chaos("ok", seed=s) for s in range(2)]
        telemetry = str(tmp_path / "events.jsonl")
        lines = []
        ok, fail, interrupted = run_distributed(
            cells, timeout_s=30.0, retries=0, workers=0,
            connect_timeout_s=0.3, jobs=2, telemetry=telemetry,
            progress=lines.append)
        assert not fail and not interrupted
        assert sorted(r.key for r in ok) == sorted(c.key for c in cells)
        # After the attach window the master forked its own workers
        # onto the same socket: there is no other way to run a cell.
        assert {r.worker for r in ok} <= {"w1", "w2"}
        assert all(r.worker for r in ok)
        (degrade,) = [e for e in load_events(telemetry)
                      if e["event"] == "dist.degrade"]
        assert degrade["remaining"] == 2
        assert any("degrading 2 cells to 2 local workers" in line
                   for line in lines)

    def test_cell_that_kills_its_worker_is_quarantined_not_degraded(
            self, tmp_path, monkeypatch):
        # Used to be: three worker-lost, respawn budget spent, degrade,
        # then a forked ``crash``.  The budget is not the cell's to
        # spend — its own ``retries`` bound it.
        masters = []
        run = master_mod._Master.run
        monkeypatch.setattr(master_mod._Master, "run",
                            lambda self: masters.append(self) or run(self))
        telemetry = str(tmp_path / "events.jsonl")
        ok, fail, interrupted = run_distributed(
            [chaos("exit", seed=0)], timeout_s=30.0, retries=3, workers=1,
            preload=PRELOAD, jobs=1, telemetry=telemetry, **FAST)
        assert not ok and not interrupted
        (failure,) = fail
        assert failure.kind == "crash" and failure.attempts == 4
        assert [e["kind"] for e in failure.attempt_log] == ["crash"] * 4
        assert failure.detail == {"exitcode": 42}
        (master,) = masters
        assert master.respawns_left == 2 and not master.degraded
        records = load_events(telemetry)
        events = [e["event"] for e in records]
        assert events.count("dist.lease.grant") == 4
        assert "dist.degrade" not in events
        (quarantine,) = [e for e in records
                         if e["event"] == "cell.quarantine"]
        assert quarantine["cell"] == failure.key
        assert quarantine["attempts"] == 4
        assert quarantine["kind"] == "crash"

    def test_more_killer_cells_than_respawn_budget_still_settle(
            self, tmp_path):
        # Ten worker deaths on a budget of four: at the parent this
        # exhausted the budget and fell back to the other transport.
        telemetry = str(tmp_path / "events.jsonl")
        cells = ([chaos("exit", seed=s) for s in range(5)]
                 + [chaos("ok", seed=s) for s in range(5, 8)])
        ok, fail, interrupted = run_distributed(
            cells, timeout_s=30.0, retries=1, workers=2, preload=PRELOAD,
            telemetry=telemetry, **FAST)
        assert not interrupted
        assert sorted(r.key for r in ok) == sorted(c.key for c in cells[5:])
        assert sorted(f.key for f in fail) == sorted(c.key for c in cells[:5])
        assert {(f.kind, f.attempts) for f in fail} == {("crash", 2)}
        events = [e["event"] for e in load_events(telemetry)]
        assert events.count("dist.worker.respawn") >= 9
        assert "dist.degrade" not in events

    def test_chaos_kill_is_worker_lost_not_the_cells_crash(self):
        # The master's own SIGKILL: the cell did nothing wrong.
        cells = [chaos("ok", delay=0.1, seed=0), chaos("ok", delay=0.6, seed=1),
                 chaos("ok", delay=0.1, seed=2)]
        ok, fail, _ = run_distributed(
            cells, timeout_s=30.0, retries=1, workers=2, preload=PRELOAD,
            chaos_kill_after=1, **FAST)
        assert len(ok) == 3 and not fail
        (victim,) = [r for r in ok if r.attempts == 2]
        assert victim.key == cells[1].key      # the busy one was picked
        (lost,) = victim.attempt_log
        assert lost["kind"] == "worker-lost" and "chaos kill" in lost["message"]

    def test_dist_metrics_and_fingerprint_match_local(self, tmp_path):
        cells = [Cell.make("sendbuf", cc="reno", size_kb=5, seed=0),
                 Cell.make("sendbuf", cc="vegas", size_kb=5, seed=0)]
        local = run_cells(cells, jobs=1, timeout_s=60.0)
        dist = run_cells(cells, jobs=1, backend="dist", timeout_s=60.0,
                         dist_options=dict(workers=2, **FAST_OPTS))
        doc_local = build_document(local, mode="quick", src_hash="h")
        doc_dist = build_document(dist, mode="quick", src_hash="h")
        assert cells_fingerprint(doc_local) == cells_fingerprint(doc_dist)
        assert doc_dist["run"]["backend"] == "dist"
        assert all(c["worker"] for c in doc_dist["cells"])


# ----------------------------------------------------------------------
# Event-driven granting and forked local workers
# ----------------------------------------------------------------------

def _echo_cell(seed=0):
    return {"value": 2.0 * seed + 1.0, "square": float(seed * seed)}


def _fd_probe_cell(telemetry="", seed=0):
    """What this worker process holds open above stdio, by kind."""
    held = {"sockets": 0.0, "nodelay": 0.0, "telemetry": 0.0, "other": 0.0}
    for name in os.listdir("/proc/self/fd"):
        fd = int(name)
        if fd <= 2:
            continue
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue                   # the listing's own descriptor
        if target.startswith("socket:"):
            held["sockets"] += 1
            with socket.socket(fileno=os.dup(fd)) as sock:
                if sock.type == socket.SOCK_STREAM and sock.family in (
                        socket.AF_INET, socket.AF_INET6):
                    held["nodelay"] += sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY) and 1
        elif target == telemetry:
            held["telemetry"] += 1
        else:
            held["other"] += 1
    return held


@pytest.fixture
def runtime_experiments():
    """Experiments that exist only in this process's registry."""
    register_experiment("echox", _echo_cell)
    register_experiment("fdprobex", _fd_probe_cell)
    yield
    unregister_experiment("echox")
    unregister_experiment("fdprobex")


@posix_only
class TestEventDrivenMaster:
    def test_grants_follow_results_not_the_tick(self, monkeypatch):
        # With the scan cadence stretched to 5 s, tick-driven granting
        # would need one tick per cell (>= 30 s); hello and each result
        # wake the loop themselves, so the six cells settle at once.
        monkeypatch.setattr(master_mod, "_TICK_S", 5.0)
        cells = [chaos("ok", seed=s) for s in range(6)]
        started = time.monotonic()
        ok, fail, interrupted = run_distributed(
            cells, timeout_s=30.0, retries=0, workers=1, **FAST)
        assert time.monotonic() - started < 5.0
        assert len(ok) == 6 and not fail and not interrupted

    def test_runtime_registered_experiment_needs_no_preload(
            self, runtime_experiments):
        cells = [Cell.make("echox", seed=s) for s in range(4)]
        local = run_cells(cells, jobs=2, timeout_s=30.0)
        dist = run_cells(cells, jobs=2, backend="dist", timeout_s=30.0,
                         dist_options=dict(workers=2, **FAST_OPTS))
        assert not local.failures and not dist.failures
        assert ({r.key: r.metrics for r in dist.results}
                == {r.key: r.metrics for r in local.results})
        assert all(r.worker for r in local.results + dist.results)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/<pid>/fd")
    def test_forked_worker_keeps_only_stdio_and_its_own_socket(
            self, runtime_experiments, tmp_path):
        # w1 dies on the exit cell, so the probes run on w2 — a respawn,
        # forked from inside the running loop with the telemetry sink,
        # the listener and the selector's own descriptor all open in
        # the master.
        telemetry = str(tmp_path / "events.jsonl")
        probes = [Cell.make("fdprobex", telemetry=telemetry, seed=s)
                  for s in range(3)]
        ok, fail, _ = run_distributed(
            [chaos("exit", seed=0)] + probes, timeout_s=30.0, retries=0,
            workers=1, telemetry=telemetry, **FAST)
        assert [f.kind for f in fail] == ["crash"]
        assert {r.worker for r in ok} == {"w2"}
        # What the worker body itself holds on the telemetry file while
        # a cell runs (span sink, gauge sampler), measured here where
        # nothing else has it open; the master's handle would be extra.
        own = execute_cell(probes[0], telemetry=telemetry)[1]["telemetry"]
        for record in ok:
            assert record.metrics == {
                "sockets": 1.0, "nodelay": 1.0, "telemetry": own,
                "other": 0.0}

    def test_master_side_of_the_connection_has_nodelay(self, monkeypatch):
        # Accepted sockets do not inherit it from the listener.
        seen = []
        settle = master_mod._Master._on_result

        def spy(self, worker, message):
            seen.append(worker.sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            settle(self, worker, message)

        monkeypatch.setattr(master_mod._Master, "_on_result", spy)
        ok, _, _ = run_distributed([chaos("ok", seed=0)], timeout_s=30.0,
                                   workers=1, **FAST)
        assert len(ok) == 1 and seen and all(seen)

    def test_hello_after_the_last_settle_is_told_to_shut_down(
            self, monkeypatch):
        # A worker still connecting when the run ends used to be
        # registered and then left waiting for a grant until the
        # shutdown deadline killed it: 2 s on a one-cell, two-worker
        # run whenever the second fork lost the race.  Here it loses.
        serve = master_mod.worker_mod.serve

        def slow_w2(connect, worker_id, *rest):
            if worker_id == "w2":
                time.sleep(0.3)
            serve(connect, worker_id, *rest)

        monkeypatch.setattr(master_mod.worker_mod, "serve", slow_w2)
        started = time.monotonic()
        ok, _, _ = run_distributed([chaos("ok", seed=0)], timeout_s=30.0,
                                   workers=2, **FAST)
        assert len(ok) == 1 and ok[0].worker == "w1"
        assert 0.3 <= time.monotonic() - started < 1.5

    def test_shutdown_grace_is_shared_not_per_worker(self, monkeypatch):
        # Drain while three workers sit in 30 s cells: none of them
        # reads ``shutdown``, so each is killed at the deadline — one
        # deadline for all three, where it used to be one apiece.
        monkeypatch.setattr(master_mod, "_SHUTDOWN_GRACE_S", 1.0)
        cells = ([chaos("ok", seed=0)]
                 + [chaos("ok", delay=30.0, seed=s) for s in range(1, 7)])
        drained = []

        def drain_on_first_result(line):
            if not drained and re.search(r": \d+\.\d+s", line):
                drained.append(time.monotonic())
                os.kill(os.getpid(), signal.SIGINT)

        ok, fail, interrupted = run_distributed(
            cells, timeout_s=60.0, retries=0, workers=3,
            progress=drain_on_first_result, **FAST)
        elapsed = time.monotonic() - drained[0]
        assert interrupted and len(ok) == 1 and not fail
        assert 1.0 <= elapsed < 2.0


# ----------------------------------------------------------------------
# The local path is this master too: what it may and may not leave behind
# ----------------------------------------------------------------------

def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _free_port():
    """A loopback port for a master a test peer must find."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _has_children():
    """Any child of this process, live or zombie (which it reaps)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@posix_only
class TestLocalPathIsTheMaster:
    def test_forked_workers_inherit_every_cell_driver(self):
        # A fresh interpreter: this process may have imported the
        # drivers already through other tests.
        probe = ("import sys\n"
                 "from repro.harness.dist.master import _import_drivers\n"
                 "assert 'repro.arena.cells' not in sys.modules\n"
                 "_import_drivers()\n"
                 "assert 'repro.arena.cells' in sys.modules\n"
                 "assert 'repro.experiments.transfers' in sys.modules\n")
        subprocess.run([sys.executable, "-c", probe], env=_env(),
                       check=True, timeout=60)

    def test_all_hits_sweep_opens_no_socket_and_forks_nothing(
            self, tmp_path, monkeypatch):
        made = {"sockets": 0, "forks": 0}

        class CountedSocket(socket.socket):
            def __init__(self, *args, **kwargs):
                made["sockets"] += 1
                super().__init__(*args, **kwargs)

        fork = os.fork

        def counted_fork():
            made["forks"] += 1
            return fork()

        monkeypatch.setattr(socket, "socket", CountedSocket)
        monkeypatch.setattr(os, "fork", counted_fork)
        cache = ResultCache(str(tmp_path / "cache"), "hash")
        cells = [chaos("ok", seed=s) for s in range(3)]
        cold = run_cells(cells, jobs=2, timeout_s=30.0, cache=cache)
        assert cold.cache_misses == 3 and not cold.failures
        assert made["sockets"] >= 1 and made["forks"] == 2   # the spies see
        made.update(sockets=0, forks=0)
        for backend in ("local", "dist"):
            warm = run_cells(cells, jobs=2, timeout_s=30.0, cache=cache,
                             backend=backend)
            assert warm.cache_hits == 3 and len(warm.results) == 3
        assert made == {"sockets": 0, "forks": 0}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/<pid>/fd")
    @pytest.mark.parametrize("ending", ["clean", "quarantine", "sigint"])
    def test_run_cells_leaves_no_child_and_no_descriptor(self, ending):
        import multiprocessing

        multiprocessing.active_children()     # reap other tests' leftovers
        if _has_children():
            pytest.skip("this process already had children")
        cells = {
            "clean": [chaos("ok", seed=s) for s in range(4)],
            "quarantine": [chaos("ok", seed=0), chaos("exit", seed=1),
                           chaos("crash", seed=2),
                           chaos("sleep", delay=30.0, seed=3)],
            "sigint": [chaos("ok", seed=0)] + [
                chaos("ok", delay=30.0, seed=s) for s in range(1, 5)],
        }[ending]
        fired = []

        def interrupt_on_first_result(line):
            if ending == "sigint" and not fired:
                fired.append(line)
                os.kill(os.getpid(), signal.SIGINT)

        before = _open_fds()
        report = run_cells(cells, jobs=2, timeout_s=1.0, retries=0,
                           progress=interrupt_on_first_result)
        assert _open_fds() <= before
        assert not _has_children()
        assert report.interrupted == (ending == "sigint")
        if ending == "quarantine":
            assert sorted(f.kind for f in report.failures) == [
                "crash", "crash", "timeout"]
        if ending == "sigint":
            assert len(report.results) == 1 and not report.failures
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    @pytest.mark.parametrize("reply", [
        b'{"type": "result"}\n',                           # fields missing
        b'{"type": ["result"], "lease_id": "L2"}\n',       # unhashable type
        b'{"type": "result", "lease_id": ["L2"], "metrics": {}, '
        b'"wall_clock_s": 0}\n',                           # unhashable id
        b'{"type": "fail", "lease_id": "L2", "kind": "crash", '
        b'"message": "m", "wall_clock_s": "soon"}\n',      # wrong type
        b'{"type": "grant"}\n',                            # not a worker's
        b"x" * 4096,                                       # never a newline
    ], ids=["missing", "list-type", "list-lease", "str-wall", "grant",
            "unterminated"])
    def test_malformed_report_drops_the_peer_not_the_master(
            self, reply, monkeypatch):
        # What a reader coroutine's own traceback used to contain: a
        # peer's bad message costs that peer its connection, the lease
        # is revoked as worker-lost and the cell completes on w1.
        monkeypatch.setattr(master_mod, "_MAX_LINE", 1024)
        port = _free_port()

        def attach():
            time.sleep(0.3)                    # w1 is busy on seed 0 by now
            with socket.create_connection(("127.0.0.1", port)) as peer:
                peer.sendall(protocol.encode(protocol.hello("evil", 0)))
                peer.makefile("rb").readline()     # its grant
                peer.sendall(reply)
                peer.settimeout(5.0)
                try:
                    assert peer.recv(1) == b""     # hung up on
                except OSError:
                    pass

        thread = threading.Thread(target=attach, daemon=True)
        thread.start()
        cells = [chaos("ok", delay=1.0, seed=0), chaos("ok", seed=1)]
        ok, fail, _ = run_distributed(
            cells, timeout_s=30.0, retries=1, workers=1,
            bind=f"127.0.0.1:{port}", **FAST)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert not fail and len(ok) == 2
        (record,) = [r for r in ok if r.key == cells[1].key]
        assert record.worker == "w1" and record.attempts == 2
        (lost,) = record.attempt_log
        assert lost["kind"] == "worker-lost"
        assert "evil" in lost["message"]
        assert "protocol error" in lost["message"]

    def test_peer_that_never_reads_is_dropped_at_the_send_timeout(
            self, monkeypatch):
        # A grant too big for the socket buffers, to a peer that said
        # hello and went deaf: ``sendall`` gives up after the bounded
        # timeout, the lease is revoked and the cell completes on w1.
        monkeypatch.setattr(master_mod, "_SEND_TIMEOUT_S", 0.5)
        port = _free_port()
        deaf = []

        def attach():
            time.sleep(0.3)                    # w1 is busy on seed 0 by now
            peer = socket.socket()
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            peer.connect(("127.0.0.1", port))
            peer.sendall(protocol.encode(protocol.hello("deaf", 0)))
            deaf.append(peer)                  # held open, never read

        thread = threading.Thread(target=attach, daemon=True)
        thread.start()
        big = chaos("ok", seed=1, scratch="x" * (2 << 20))
        started = time.monotonic()
        try:
            ok, fail, _ = run_distributed(
                [chaos("ok", delay=1.5, seed=0), big], timeout_s=30.0,
                retries=1, workers=1, bind=f"127.0.0.1:{port}", **FAST)
        finally:
            thread.join()
            for peer in deaf:
                peer.close()
        assert time.monotonic() - started < 10.0
        assert not fail and len(ok) == 2
        (record,) = [r for r in ok if r.key == big.key]
        assert record.worker == "w1" and record.attempts == 2
        (lost,) = record.attempt_log
        assert lost["kind"] == "worker-lost"
        assert "deaf" in lost["message"] and "write failed" in lost["message"]

    @staticmethod
    def _hostile_peer(talk):
        """Start a peer that knocks while w1 is busy on seed 0 and runs
        ``talk(peer, reader)``; returns ``(port, thread, heard)``, with
        every line the master sent it in *heard*."""
        port = _free_port()
        heard = []

        def attach():
            time.sleep(0.3)                    # w1 is busy on seed 0 by now
            with socket.create_connection(("127.0.0.1", port)) as peer:
                peer.settimeout(5.0)
                reader = peer.makefile("rb")
                talk(peer, reader)
                try:
                    heard.extend(reader.readlines())    # until hung up on
                except OSError:
                    pass

        thread = threading.Thread(target=attach, daemon=True)
        thread.start()
        return port, thread, heard

    @pytest.mark.parametrize("hello", ["wrong-version", "duplicate-id"])
    def test_refused_hello_gets_no_grant(self, hello, capfd):
        def talk(peer, reader):
            if hello == "wrong-version":
                message = dict(protocol.hello("old", 0),
                               version="repro-dist/v0")
            else:
                message = protocol.hello("w1", 0)     # w1 is connected
            peer.sendall(protocol.encode(message))

        port, thread, heard = self._hostile_peer(talk)
        cells = [chaos("ok", delay=1.0, seed=0), chaos("ok", seed=1)]
        settled = []
        ok, fail, _ = run_distributed(
            cells, timeout_s=30.0, retries=1, workers=1,
            bind=f"127.0.0.1:{port}", on_result=settled.append, **FAST)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        replies = [protocol.decode(line) for line in heard]
        if hello == "wrong-version":
            assert replies == []               # hung up on, nothing sent
        else:
            assert replies == [protocol.shutdown("duplicate worker id 'w1'")]
        assert not fail
        assert sorted(r.key for r in settled) == sorted(c.key for c in cells)
        assert all(r.worker == "w1" and r.attempts == 1 for r in ok)
        assert not _has_children()
        assert "Traceback" not in capfd.readouterr().err

    def test_result_for_a_lease_the_peer_does_not_hold_is_stale(
            self, tmp_path, capfd):
        # The peer is granted seed 1 (L2) while w1 holds seed 0 (L1).
        # It files a result for w1's lease and one for a lease nobody
        # was granted, then hangs up: both are stale, neither reaches
        # the cache, w1's own result for L1 settles, and seed 1 is
        # revoked from the peer and completes on w1.
        def talk(peer, reader):
            peer.sendall(protocol.encode(protocol.hello("evil", 0)))
            grant = protocol.decode(reader.readline())
            assert grant["type"] == "grant" and grant["lease_id"] == "L2"
            for lease_id in ("L1", "L99"):
                peer.sendall(protocol.encode(protocol.result(
                    "evil", lease_id, grant["key"], {"value": -1.0}, 0.0)))
            peer.shutdown(socket.SHUT_WR)

        port, thread, heard = self._hostile_peer(talk)
        cache = ResultCache(str(tmp_path / "cache"), "hash")
        written = []
        put = cache.put

        def recording_put(key, payload):
            written.append(key)
            put(key, payload)

        cache.put = recording_put
        telemetry = str(tmp_path / "events.jsonl")
        cells = [chaos("ok", delay=1.0, seed=0), chaos("ok", seed=1)]
        report = run_cells(
            cells, jobs=1, cache=cache, backend="dist", timeout_s=30.0,
            retries=1, backoff_base=FAST["backoff_base"],
            telemetry=telemetry,
            dist_options=dict(workers=1, bind=f"127.0.0.1:{port}",
                              **FAST_OPTS))
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert not report.failures
        assert sorted(written) == sorted(c.key for c in cells)
        for cell in cells:
            assert cache.get(cell.key)["metrics"] == {
                "value": float(cell.as_dict()["seed"]), "chaos": 0.0}
        first, second = (next(r for r in report.results if r.key == c.key)
                         for c in cells)
        assert (first.worker, first.attempts) == ("w1", 1)
        assert (second.worker, second.attempts) == ("w1", 2)
        (lost,) = second.attempt_log
        assert lost["kind"] == "worker-lost" and "evil" in lost["message"]
        events = load_events(telemetry)
        stale = [e for e in events if e["event"] == "dist.stale"]
        assert [e["worker"] for e in stale] == ["evil", "evil"]
        (end,) = [e for e in events if e["event"] == "dist.end"]
        assert end["stale_results"] == 2
        assert not _has_children()
        assert "Traceback" not in capfd.readouterr().err


# ----------------------------------------------------------------------
# Backend parity: one policy, whichever settings the master ran with
# ----------------------------------------------------------------------

def _outline(report):
    """What a one-cell run decided, minus worker ids and wall clocks."""
    (record,) = report.results + report.failures
    out = {
        "settled": "fail" if report.failures else "ok",
        "attempts": record.attempts,
        "attempt_log": [
            (sorted(entry), entry["attempt"], entry["kind"],
             entry.get("backoff_s"),
             re.sub(r" on worker \S+", "", entry["message"]))
            for entry in record.attempt_log],
    }
    if report.failures:
        out.update(kind=record.kind, fields=sorted(record.as_dict()),
                   message=re.sub(r" on worker \S+", "", record.message),
                   detail_keys=sorted(set(record.detail) - {"worker"}))
    else:
        out.update(metrics=record.metrics)
    return out


@posix_only
@pytest.mark.parametrize("mode", ["ok", "hang", "crash", "flaky", "exit"])
def test_fork_and_socket_transports_settle_a_cell_identically(
        mode, tmp_path):
    # The name is from when there were two transports; what it pins now
    # is that ``--jobs`` with and without ``--bind`` is one master: the same
    # cell settles the same way under either set of options.
    if mode == "hang":
        cell = chaos("sleep", delay=30.0, seed=0)
    elif mode == "flaky":
        cell = chaos("flaky", seed=0, scratch=str(tmp_path))
    else:
        cell = chaos(mode, seed=0)
    policy = dict(jobs=1, timeout_s=0.5 if mode == "hang" else 30.0,
                  retries=1, backoff_base=FAST["backoff_base"])
    local = run_cells([cell], backend="local", **policy)
    if mode == "flaky":
        os.remove(tmp_path / "flaky-0.attempted")     # first run again
    dist = run_cells([cell], backend="dist", **policy,
                     dist_options=dict(workers=1, preload=PRELOAD,
                                       **FAST_OPTS))
    assert _outline(local) == _outline(dist)
    assert local.results + local.failures and all(
        r.worker for r in local.results + dist.results)
    expected = {"ok": ("ok", 1), "hang": ("fail", 2), "crash": ("fail", 2),
                "flaky": ("ok", 2), "exit": ("fail", 2)}[mode]
    outline = _outline(local)
    assert (outline["settled"], outline["attempts"]) == expected
    if mode == "hang":
        assert outline["kind"] == "timeout"
    if mode == "exit":
        assert outline["kind"] == "crash"
        assert outline["detail_keys"] == ["exitcode"]


# ----------------------------------------------------------------------
# Kill + re-run (resume is a re-run: the cache), and SIGINT drain
# ----------------------------------------------------------------------

_CACHE_DRIVER = """\
import json, sys
from repro.harness import Cell, ResultCache, run_cells
import repro.harness.dist.chaos

cells = [Cell.make("dist_chaos", mode="ok", delay=0.3, seed=s)
         for s in range(8)]
run_cells(cells, timeout_s=30.0,
          cache=ResultCache(sys.argv[1], "kill-test"),
          progress=lambda line: print("P " + line, flush=True),
          **json.loads(sys.argv[2]))
"""

#: Both ways into the master: forked ``--jobs`` workers, and the
#: ``--bind`` settings.
TRANSPORTS = {
    "local": {"jobs": 1},
    "dist": {"backend": "dist", "dist_options": {"workers": 1}},
}


@posix_only
class TestKillAndResume:
    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    def test_killed_driver_keeps_every_cell_it_finished(self, tmp_path,
                                                        transport):
        # The cache is written as each cell settles, not after the
        # transport returns, so SIGKILL loses nothing and re-running
        # the same sweep executes only the cells that had not settled.
        kwargs = TRANSPORTS[transport]
        cache_dir = str(tmp_path / "cache")
        driver = tmp_path / "driver.py"
        driver.write_text(_CACHE_DRIVER)
        proc = subprocess.Popen(
            [sys.executable, str(driver), cache_dir, json.dumps(kwargs)],
            env=_env(), stdout=subprocess.PIPE, text=True)
        settled = []
        try:
            for line in proc.stdout:
                assert line.startswith("P "), line
                settled.append(line[2:].split(": ")[0])
                if len(settled) == 4:
                    break
        finally:
            proc.kill()
            proc.wait()

        cache = ResultCache(cache_dir, "kill-test")
        cells = [chaos("ok", delay=0.3, seed=s) for s in range(8)]
        cached = [c.key for c in cells if cache.get(c.key)]
        assert sorted(cached) == sorted(settled) and len(cached) == 4
        executed = []
        report = run_cells(cells, timeout_s=30.0, cache=cache,
                           progress=executed.append, **kwargs)
        assert report.cache_hits == 4 and report.cache_misses == 4
        assert len(report.results) == 8 and not report.failures
        ran = {line.split(": ")[0] for line in executed
               if not line.endswith(": cached")}
        assert ran == {c.key for c in cells} - set(settled)
        # The resumed sweep is indistinguishable from an uninterrupted one.
        whole = run_cells(cells, jobs=2, timeout_s=30.0)
        assert (cells_fingerprint(build_document(report, "quick", "h"))
                == cells_fingerprint(build_document(whole, "quick", "h")))


_SIGINT_DRIVER = """\
from repro.harness.registry import Cell
from repro.harness.dist.master import run_distributed

cells = [Cell.make("dist_chaos", mode="ok", delay=0.4, seed=s)
         for s in range(20)]
ok, fail, interrupted = run_distributed(
    cells, timeout_s=30.0, retries=1, workers=1,
    preload=["repro.harness.dist.chaos"],
    heartbeat_interval_s=0.1, heartbeat_misses=4, backoff_base=0.01,
    progress=lambda line: print("P " + line, flush=True))
print(f"DONE ok={len(ok)} fail={len(fail)} intr={interrupted}", flush=True)
"""


@posix_only
class TestDrain:
    def test_sigint_drains_with_partial_results(self, tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(_SIGINT_DRIVER)
        proc = subprocess.Popen([sys.executable, str(driver)], env=_env(),
                                stdout=subprocess.PIPE, text=True)
        settle = re.compile(r": \d+\.\d+s")
        interrupted_sent = False
        final = ""
        deadline = time.monotonic() + 60.0
        try:
            for line in proc.stdout:
                if (not interrupted_sent and line.startswith("P ")
                        and settle.search(line)):
                    interrupted_sent = True
                    proc.send_signal(signal.SIGINT)
                if line.startswith("DONE"):
                    final = line
                    break
                assert time.monotonic() < deadline
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        assert "intr=True" in final
        done = int(final.split("ok=")[1].split()[0])
        assert 1 <= done < 20                 # partial, not all, not none

    def test_local_supervised_drain_keeps_settled_cells(self):
        # The same drain contract on the local pool (satellite 2): a
        # KeyboardInterrupt mid-sweep keeps what settled and reports
        # interrupted instead of dying with a traceback.
        cells = [Cell.make("sendbuf", cc="reno", size_kb=5, seed=0),
                 Cell.make("sendbuf", cc="vegas", size_kb=5, seed=0),
                 Cell.make("sendbuf", cc="reno", size_kb=20, seed=0)]
        fired = []

        def interrupt_once(line):
            if not fired:
                fired.append(line)
                raise KeyboardInterrupt

        ok, fail, interrupted = run_supervised(
            cells, jobs=1, timeout_s=60.0, retries=0,
            progress=interrupt_once)
        assert interrupted and not fail
        assert 1 <= len(ok) < len(cells)

    def test_serial_runner_drain_sets_interrupted(self):
        cells = [Cell.make("sendbuf", cc="reno", size_kb=5, seed=0),
                 Cell.make("sendbuf", cc="vegas", size_kb=5, seed=0)]
        fired = []

        def interrupt_once(line):
            if not fired:
                fired.append(line)
                raise KeyboardInterrupt

        report = run_cells(cells, jobs=1, progress=interrupt_once)
        assert report.interrupted
        assert 1 <= len(report.results) < len(cells)
