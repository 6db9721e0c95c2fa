"""Tests for the discrete-event engine."""

import ast
import math
import os
import re
import subprocess
import sys
import textwrap
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.errors import SimulationError
from repro.sim import engine, observers
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_before_now_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("calendar_engaged", [False, True])
    @pytest.mark.parametrize("entry", ["schedule", "schedule_anon",
                                       "schedule_at"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_and_past_times_rejected(self, bad, entry,
                                                calendar_engaged,
                                                monkeypatch):
        """NaN slips through ``delay < 0``; inf overflows the calendar's
        epoch arithmetic.  One guard rejects both, and the past, on
        every entry point, whether or not events are parked."""
        if calendar_engaged:
            monkeypatch.setattr(engine, "_WHEEL_THRESHOLD", 0)
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "near")
        sim.schedule(5.0, fired.append, "far")
        assert (sim.far_events > 0) == calendar_engaged
        sim.run(until=0.5)
        with pytest.raises(SimulationError):
            getattr(sim, entry)(bad, fired.append, "bad")
        assert sim.pending_events == 2
        sim.run()
        assert fired == ["near", "far"]
        assert sim.now == 5.0

    def test_args_are_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(0.0, lambda x, y: got.append((x, y)), 1, "two")
        sim.run()
        assert got == [(1, "two")]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_via_simulator_accepts_none(self):
        sim = Simulator()
        sim.cancel(None)  # no-op, no exception

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(1.0, lambda: fired.append("drop"))
        sim.cancel(drop)
        sim.run()
        assert fired == ["keep"]
        assert keep.time == 1.0

    def test_pending_events_counts_what_can_still_fire(self, monkeypatch):
        # Threshold 0: the 5 s event parks in a calendar bucket.
        monkeypatch.setattr(engine, "_WHEEL_THRESHOLD", 0)
        sim = Simulator()
        first = sim.schedule(0.5, lambda: None)
        near = sim.schedule(0.9, lambda: None)
        far = sim.schedule(5.0, lambda: None)
        sim.schedule_anon(0.7, lambda: None)
        assert sim.far_events == 1 and sim.pending_events == 4
        near.cancel()
        far.cancel()
        far.cancel()  # a second cancel counts once
        assert sim.pending_events == 2
        sim.run(until=0.6)
        first.cancel()  # already fired: a no-op
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0 and sim.events_processed == 2


class TestRunBounds:
    def test_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("edge"))
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_until_leaves_later_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.pending_events == 1
        assert sim.now == 5.0  # clock advanced to the horizon

    def test_resume_after_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run(until=15.0)
        assert fired == [10]

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        processed = sim.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_run_returns_processed_count(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        assert sim.run() == 4
        assert sim.events_processed == 4

    def test_max_events_zero_dispatches_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        assert sim.run(max_events=0) == 0
        assert fired == []
        assert sim.events_processed == 0
        assert sim.pending_events == 1
        assert sim.now == 0.0

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0.0, reenter)
        sim.run()


class _Callback:
    """A callback a weak reference can watch."""

    def __call__(self) -> None:  # pragma: no cover - never dispatched
        raise AssertionError("a closed simulator dispatched an event")


class _Probe(observers.Instrument):
    """An armed instrument a weak reference can watch."""


class TestClose:
    """close() drops everything the run held and keeps its counters."""

    def _loaded(self, monkeypatch):
        # Threshold 0 (as in the differential suite): every far event
        # parks in a calendar bucket.
        monkeypatch.setattr(engine, "_WHEEL_THRESHOLD", 0)
        probe = _Probe()
        with observers.armed(probe=probe):
            sim = Simulator()
        for _ in range(3):
            sim.schedule(0.5, lambda: None)
        callbacks = [_Callback() for _ in range(4)]
        handles = [sim.schedule(0.9, callbacks[0]),        # heap
                   sim.schedule(5.0, callbacks[1])]        # parked
        sim.schedule_anon(0.95, callbacks[2])              # heap
        sim.schedule_anon(7.0, callbacks[3])               # parked
        sim.run(until=0.6)
        assert sim.heap_size == 2 and sim.far_events == 2
        assert sim.pending_events == 4
        return sim, handles, [weakref.ref(c) for c in (*callbacks, probe)]

    def test_drops_heap_and_parked_events(self, monkeypatch):
        sim, handles, refs = self._loaded(monkeypatch)
        far_peak = sim.far_events_peak
        sim.close()
        assert sim.heap_size == 0
        assert sim.far_events == 0
        assert sim.pending_events == 0
        for handle in handles:
            handle.fn = None  # only the simulator may still hold them
        # Callbacks and the armed instrument are released.
        assert [ref() for ref in refs] == [None] * 5
        # Counters survive.
        assert sim.now == 0.6
        assert sim.events_processed == 3
        assert sim.far_events_peak == far_peak == 2

    def test_dropped_handles_are_dead(self, monkeypatch):
        sim, handles, _ = self._loaded(monkeypatch)
        sim.close()
        for handle in handles:
            handle.cancel()
        assert sim.pending_events == 0

    def test_second_close_is_a_no_op_and_run_finds_nothing(
            self, monkeypatch):
        sim, _, _ = self._loaded(monkeypatch)
        sim.close()
        sim.close()
        assert sim.run() == 0
        assert sim.events_processed == 3
        assert sim.far_events_peak == 2

    def test_cannot_close_a_running_simulator(self):
        sim = Simulator()

        def close_inside():
            with pytest.raises(SimulationError):
                sim.close()

        sim.schedule(0.0, close_inside)
        sim.run()


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_execution_times_are_sorted(self, delays):
        """Whatever the schedule order, execution is time-sorted."""
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1000,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=100))
    def test_cancelled_subset_never_fires(self, items):
        sim = Simulator()
        fired = []
        events = []
        for i, (delay, cancel) in enumerate(items):
            events.append((sim.schedule(delay, fired.append, i), cancel))
        for event, cancel in events:
            if cancel:
                event.cancel()
        sim.run()
        expected = {i for i, (_, cancel) in enumerate(items) if not cancel}
        assert set(fired) == expected


class TestSourceGuard:
    """The engine has no modes and no privileged callers; keep it so."""

    SRC = Path(repro.__file__).parent

    def _matches(self, pattern):
        found = []
        for path in sorted(self.SRC.rglob("*.py")):
            rel = path.relative_to(self.SRC).as_posix()
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if re.search(pattern, line):
                    found.append((rel, number, line.strip()))
        return found

    def test_only_the_cache_dir_comes_from_the_environment(self):
        """No behaviour toggle may hide in an environment variable:
        the result cache is keyed by source hash, not by environment."""
        reads = {(rel, line) for rel, _, line
                 in self._matches(r"\benviron\b|\bgetenv\b")}
        assert reads == {
            ("harness/cache.py",
             "return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)"),
        }
        names = {name for _, _, line in self._matches(r"REPRO_[A-Z]")
                 for name in re.findall(r"REPRO_[A-Z_]+", line)}
        assert names == {"REPRO_CACHE_DIR"}

    def test_scheduler_internals_stay_inside_the_engine(self):
        """The heap-entry format and the parking rule live in
        ``sim/engine.py`` only — which is also what lets the reference
        engine drop in under the whole stack."""
        touches = [hit for hit in self._matches(
            r"\._(heap|seq|live|heap_max|far_count|fast)\b")
            if hit[0] != "sim/engine.py"]
        # TCPProtocol's 200 ms delayed-ACK timer shares a name, nothing more.
        touches = [hit for hit in touches
                   if not (hit[0] == "tcp/protocol.py"
                           and "self._fast" in hit[2])]
        assert touches == []

    def test_one_cell_scheduler(self):
        """Retry, deadline and quarantine policy lives in
        ``harness/lease.py`` only, and a cell is run for the harness by
        one worker body — the transports cannot drift apart.  The
        result cache is the one way to resume a sweep: there is no run
        journal to replay."""
        def modules(pattern):
            return sorted(rel for rel, _, _ in self._matches(pattern))

        assert set(modules(r"\bretry_backoff\(")) == {"harness/lease.py"}
        assert modules(r"\bFailureRecord\(") == ["harness/lease.py"]
        assert self._matches(r"\.Pool\(") == []
        assert self._matches(r"RunJournal|\breplay\(|--journal|--resume") == []

        wrappers = set()
        harness = self.SRC / "harness"
        for path in sorted(harness.rglob("*.py")):
            for func in ast.walk(ast.parse(path.read_text())):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == "run_cell"):
                        wrappers.add((path.relative_to(self.SRC).as_posix(),
                                      func.name))
        assert wrappers == {("harness/supervisor.py", "execute_cell")}

    def test_one_declaration_per_cli_option(self):
        """The sweep flags are declared, checked and turned into a
        ``run_cells`` call in ``harness/options.py`` only, and
        ``cli.py`` declares nothing — it dispatches."""
        declared = [(rel, flag) for rel, _, line
                    in self._matches(r"add_argument\(")
                    for flag in re.findall(r'add_argument\("(--[a-z-]+)"',
                                           line)]
        for flag in ("--jobs", "--timeout", "--no-timeout", "--retries",
                     "--checks", "--faults", "--watchdog", "--telemetry",
                     "--no-cache", "--cache-dir", "--bind"):
            homes = [rel for rel, name in declared if name == flag]
            # report/check take a --telemetry *input*; a sweep writes one.
            if flag == "--telemetry":
                homes = [rel for rel in homes
                         if rel not in ("harness/check.py", "obs/report.py")]
            assert homes == ["harness/options.py"], flag
        cli = (self.SRC / "cli.py").read_text()
        for needle in ("add_argument(", "argv = [", "argv.extend(",
                       "def _cmd_"):
            assert needle not in cli, needle
        assert {rel for rel, _, _ in self._matches(r"\bResultCache\(")} == {
            "harness/options.py"}

    def test_one_door_per_job(self):
        """``run-all`` is the only command that runs a paper artifact,
        and ``--jobs``/``--bind`` the only spelling of a sweep's
        workers: ``--backend``, ``--workers`` and ``--preload`` belong
        to ``dist worker`` alone."""
        from repro.cli import build_parser

        commands = build_parser()._subparsers._group_actions[0].choices
        assert list(commands) == ["list", "solo", "run-all", "dist",
                                  "traces", "check", "report", "profile"]
        assert not (self.SRC / "search").exists()
        assert self._matches(r"def (print_artifact|print_figure)\(") == []
        homes = {rel for rel, _, line in self._matches(r"add_argument\(")
                 if re.search(r'"--(backend|workers|preload)"', line)}
        assert homes == {"harness/dist/worker.py"}

    def test_one_definition_per_paper_artifact(self):
        """A paper table is one runner and one grid in
        ``harness/registry.py`` plus one renderer in
        ``harness/aggregate.py``: no serial driver walks the grid a
        second way, no title or grid value is typed a second time."""
        assert self._matches(
            r"def (table[1-5]|table_twoway|sendbuf_sweep|"
            r"response_time_comparison|fairness_comparison|"
            r"print_(table[1-5]|sendbuf|fairness|twoway|telnet))\(") == []
        for title in ("Table 1: one-on-one transfers",
                      "Table 2: 1MB transfer vs tcplib background",
                      "Table 3: background throughput (KB/s)",
                      "Table 4: 1MB over the emulated UA->NIH path",
                      "Table 5 — ",
                      "§4.3 send-buffer sweep",
                      "§4.3 multiple competing connections",
                      "§4.3 two-way background traffic",
                      "§6 TELNET response time"):
            # As a string literal: one quote, not a docstring's three.
            homes = {rel for rel, _, _
                     in self._matches('(?<!")"' + re.escape(title))}
            assert homes == {"harness/aggregate.py"}, title
        assert {rel for rel, _, _ in self._matches(r"\bMetricTable\(")} <= {
            "metrics/tables.py", "harness/aggregate.py"}
        registry = (self.SRC / "harness" / "registry.py").read_text()
        for literal in ('"vegas-1,3"', '"vegas-2,4"', '("reno", "reno")',
                        '("vegas", "vegas")', "(10, 15, 20)", "(15, 20)"):
            assert literal not in registry, literal

    def test_one_transport(self):
        """A supervised cell travels one way — socket workers under the
        ``selectors`` master: no event-loop framework, no fork-and-pipe
        per cell, and ``run_cells`` chooses between exactly two bodies
        (in this process, or the master)."""
        assert self._matches(r"^\s*(import|from) asyncio\b") == []
        assert self._matches(r"multiprocessing\.connection") == []
        assert self._matches(
            r"def supervise\(|_child_entry|_terminate\(") == []
        runner = (self.SRC / "harness" / "runner.py").read_text()
        assert sorted(re.findall(
            r"\b(execute_cell|run_distributed|run_supervised|supervise)\(",
            runner)) == ["execute_cell", "run_distributed"]

    def test_one_instrumentation_registry(self):
        """Instruments are armed in ``sim/observers.py`` and nowhere
        else, and the simulator core imports none of them."""
        slots = [hit for hit in self._matches(r"^_active\b")
                 if not hit[0].startswith("harness/dist/")]
        assert [rel for rel, _, _ in slots] == ["sim/observers.py"]
        assert self._matches(r"def (activate|deactivate)\(") == []
        assert list(self.SRC.rglob("runtime.py")) == []
        instruments = r"repro\.(checks|obs|perf|faults)\b"
        imports = [hit for hit in self._matches(r"^\s*(import|from)\s")
                   if hit[0].startswith(("sim/", "net/", "tcp/"))
                   and re.search(instruments, hit[2])]
        assert imports == []
        observers = [line for rel, _, line
                     in self._matches(r"^\s*(import|from)\s")
                     if rel == "sim/observers.py"]
        assert observers and not any("repro" in line for line in observers)
        registry = (self.SRC / "harness" / "registry.py").read_text()
        assert "deactivate" not in registry
        assert registry.count("observers.armed(") == 1

    def test_one_home_per_connection_variable(self):
        """Connection, estimator and controller state are attributes of
        the objects that own them — no side store, no slot index — and
        a controller touches its connection only through the services
        ``core/base.py`` documents."""
        assert not (self.SRC / "tcp" / "flatstate.py").exists()
        assert self._matches(r"\b(ConnStateStore|store_for|_conn_store)\b") \
            == []
        arrays = [hit for hit in self._matches(
            r"^\s*(from array import|import array\b)")
            if hit[0].startswith(("tcp/", "core/"))]
        assert arrays == []
        assert self._matches(r"\._(st|slot|fs|fi)\b") == []
        leaks = [hit for hit in self._matches(
            r"\bconn\._|getattr\(self\.conn\b") if hit[0].startswith("core/")]
        assert leaks == []

    def test_one_perf_system(self):
        """``bench/run.py`` is the only thing that times the code: no
        second suite, no timing baseline, no clock on the probe."""
        from repro.cli import build_parser
        from repro.perf import PerfProbe

        assert not (self.SRC / "perf" / "bench.py").exists()
        assert not (self.SRC / "perf" / "micro.py").exists()
        assert "bench" not in build_parser().get_default("_subcommands")
        ci = self.SRC.parents[1] / ".github"
        files = [*self.SRC.rglob("*.py"), *ci.rglob("*.yml")]
        assert [path for path in files
                if "BENCH_engine" in path.read_text()] == []
        for name in ("phase", "snapshot", "events_per_sec"):
            assert not hasattr(PerfProbe, name)

    def test_one_cohort_builder(self):
        """Every shared-bottleneck cohort — arena matchups, crossover
        duels and the §4.3 fairness cells — is built by
        ``arena.cells.run_cohort``: one dumbbell, one stagger stream."""
        assert {rel for rel, _, _ in self._matches(
            r'stream\("stagger"\)')} == {"arena/cells.py"}
        assert self._matches(r"def run_competing_connections\b") == []

    def test_one_home_for_paper_artifacts(self):
        """Every paper artifact is a registry experiment whose claims
        ``tests/test_paper_claims.py`` reads: there is no second test
        suite, no benchmark plugin and no lint path for one."""
        from repro.harness.registry import EXPERIMENTS

        root = self.SRC.parents[1]
        assert not (root / "benchmarks").exists()
        pyproject = (root / "pyproject.toml").read_text()
        assert "pytest-benchmark" not in pyproject
        assert "bench_*" not in pyproject
        ci = (root / ".github" / "workflows" / "ci.yml").read_text()
        assert [line for line in ci.splitlines()
                if "ruff" in line and "benchmarks" in line] == []
        claims = ast.parse((root / "tests" / "test_paper_claims.py")
                           .read_text())
        literals = {node.value for node in ast.walk(claims)
                    if isinstance(node, ast.Constant)}
        assert [name for name in EXPERIMENTS if name not in literals] == []

    def test_one_record_per_experiment(self):
        """What the harness knows about an experiment is one record in
        ``harness/registry.py``: no side table of runners, grids,
        families, deadline hints or renderers, and every sweep
        experiment has a grid and a renderer.  The registry stays lazy:
        importing it loads no package its runners and renderers use, and
        what a cache-served sweep does (enumerate the cells, hash the
        source, render every experiment of the baseline) loads no
        simulator package and no experiment driver but ``defaults``."""
        from repro.harness.registry import EXPERIMENTS, RECORDS

        assert self._matches(
            r"\b(_RUNNERS|_GRIDS|_FAMILIES|_TIMEOUT_HINTS|_AGGREGATORS|"
            r"register_timeout_hint|family_cells)\b") == []
        assert [name for name in EXPERIMENTS
                if name not in RECORDS or RECORDS[name].grid is None
                or RECORDS[name].render is None] == []
        baseline = self.SRC.parents[1] / "baselines" / "expected.json"
        code = textwrap.dedent("""
            import json, sys
            import repro.harness
            print(sorted(name for name in sys.modules if name.startswith(
                ("repro.experiments", "repro.arena", "repro.trafficgen"))))
            # A cache-served sweep: enumerate, hash the source, render
            # every experiment of the committed baseline.
            from repro.harness import all_cells, compute_src_hash
            from repro.harness.registry import RECORDS

            all_cells(quick=True)
            compute_src_hash()
            with open(sys.argv[1]) as handle:
                cells = json.load(handle)["cells"]
            by_experiment = {}
            for cell in cells:
                by_experiment.setdefault(cell["experiment"], []).append(cell)
            for experiment, group in by_experiment.items():
                assert RECORDS[experiment].render(group), experiment
            simulator = {"sim", "tcp", "net", "core", "trace", "trafficgen",
                         "apps"}
            print(sorted(
                name for name in sys.modules
                if name.startswith("repro.") and (
                    name.split(".")[1] in simulator
                    or (name.startswith("repro.experiments.")
                        and name != "repro.experiments.defaults"))))
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(self.SRC.parent), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code, str(baseline)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[]"]

    def test_a_cache_warm_cli_sweep_loads_no_simulator(self, tmp_path):
        """The command line is as lazy as the harness: building the
        parser and a ``run-all --quick`` served wholly from the cache
        load no simulator module."""
        baseline = self.SRC.parents[1] / "baselines" / "expected.json"
        code = textwrap.dedent("""
            import contextlib, io, json, sys
            from repro.cli import build_parser, main
            from repro.harness import ResultCache, compute_src_hash

            SIMULATOR = {"sim", "tcp", "net", "core", "trace", "trafficgen",
                         "apps"}

            def loaded():
                return sorted(name for name in sys.modules
                              if name.startswith("repro.")
                              and name.split(".")[1] in SIMULATOR)

            baseline, cache_dir, artifact = sys.argv[1:]
            build_parser()
            print(loaded())
            cache = ResultCache(cache_dir, compute_src_hash())
            with open(baseline) as handle:
                for cell in json.load(handle)["cells"]:
                    cache.put(cell["key"], {"metrics": cell["metrics"]})
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["run-all", "--quick", "--cache-dir", cache_dir,
                             "--json", artifact])
            print(code, loaded())
            with open(artifact) as handle:
                run = json.load(handle)["run"]
            print(run["cache_hits"] == run["cells"], run["cache_misses"])
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(self.SRC.parent), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", code, str(baseline),
             str(tmp_path / "cache"), str(tmp_path / "warm.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "0 []", "True 0"]

    def test_package_roots_resolve_names_on_first_use(self):
        """``repro``, ``repro.experiments`` and ``repro.perf`` export the
        same objects their defining modules hold, and an unknown name is
        an ``AttributeError``."""
        import repro.experiments
        import repro.perf

        for package in (repro, repro.experiments, repro.perf):
            for name in package.__all__:
                value = getattr(package, name)
                if isinstance(value, types.ModuleType):
                    assert value is sys.modules[f"{package.__name__}.{name}"]
                elif name == "__version__":
                    assert isinstance(value, str)
                else:
                    home = sys.modules[value.__module__]
                    assert getattr(home, name) is value, (package, name)
                assert name in dir(package)
            with pytest.raises(AttributeError, match="no_such_name"):
                package.no_such_name
            assert not hasattr(package, "no_such_name")

    def test_the_engine_loads_no_instrument(self):
        """Fresh interpreter: the simulator core stands without the
        packages that watch it."""
        code = ("import sys, repro.sim.engine, repro.tcp.connection, "
                "repro.net.link\n"
                "print(sorted(name for name in sys.modules if name.startswith("
                "('repro.checks', 'repro.obs', 'repro.perf', "
                "'repro.faults'))))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(self.SRC.parent), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.skipif(os.name != "posix", reason="local workers are forks")
    def test_a_local_sweep_loads_no_event_loop(self):
        """Fresh interpreter: ``import repro.harness`` loads none of the
        transport's modules (a cache-served sweep never pays for them),
        and a two-cell ``--jobs 2`` sweep never loads ``asyncio``."""
        code = textwrap.dedent("""
            import sys
            import repro.harness
            heavy = ("asyncio", "multiprocessing", "selectors", "socket",
                     "repro.harness.dist")
            early = sorted(name for name in sys.modules
                           if name.startswith(heavy))
            assert not early, early
            from repro.harness import Cell, run_cells
            report = run_cells(
                [Cell.make("sendbuf", cc=cc, size_kb=5, seed=0)
                 for cc in ("reno", "vegas")], jobs=2, timeout_s=30)
            assert len(report.results) == 2 and not report.failures
            assert all(r.worker for r in report.results)
            assert "repro.harness.dist.master" in sys.modules
            assert "asyncio" not in sys.modules
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(self.SRC.parent), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
