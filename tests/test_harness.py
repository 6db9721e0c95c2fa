"""Tests for the parallel experiment harness.

Covers the contracts the harness advertises: stable cell keys,
bit-identical results regardless of job count, cache hit/miss and
invalidation behaviour, artifact schema, and the regression checker's
exit codes.
"""

import errno
import gc
import json
import multiprocessing
import os
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.harness import (
    Cell,
    ResultCache,
    all_cells,
    build_document,
    cells_fingerprint,
    cells_for,
    compute_src_hash,
    load_document,
    register_experiment,
    run_cell,
    run_cells,
    unregister_experiment,
    write_document,
)
from repro.harness import check
from repro.harness.aggregate import summarize
from repro.harness.cache import READ_CHUNK
from repro.harness.registry import EXPERIMENTS
from repro.harness.runner import namespace
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.tcp.connection import TCPConnection

#: Cheap cells (sub-second solo transfers) for runner/cache tests.
CHEAP_CELLS = [
    Cell.make("sendbuf", cc="reno", size_kb=5, seed=0),
    Cell.make("sendbuf", cc="vegas", size_kb=5, seed=0),
    Cell.make("sendbuf", cc="reno", size_kb=10, seed=0),
]


class TestCellKeys:
    def test_key_format_is_stable(self):
        # The key format is a compatibility contract (cache + baselines);
        # these exact strings must never change silently.
        assert (Cell.make("table2", proto="reno", buffers=10, seed=0).key
                == "table2/buffers=10/proto=reno/seed=0")
        assert (Cell.make("table1", small="vegas", large="reno",
                          buffers=15, delay=0.5, seed=3).key
                == "table1/buffers=15/delay=0.5/large=reno/seed=3/small=vegas")
        assert (Cell.make("fairness", cc="vegas", count=16, mixed=True,
                          seed=0).key
                == "fairness/cc=vegas/count=16/mixed=true/seed=0")

    def test_key_independent_of_kwarg_order(self):
        a = Cell.make("table2", proto="reno", buffers=10, seed=0)
        b = Cell.make("table2", seed=0, buffers=10, proto="reno")
        assert a == b and a.key == b.key

    def test_float_formatting(self):
        assert "delay=0" in Cell.make("table1", delay=0.0).key
        assert "delay=2.5" in Cell.make("table1", delay=2.5).key

    def test_cells_are_hashable_and_picklable(self):
        import pickle

        cell = CHEAP_CELLS[0]
        assert pickle.loads(pickle.dumps(cell)) == cell
        assert len({cell, cell}) == 1


    def test_key_is_built_once(self):
        """Every way of making a cell gives it the same key; the key is
        derived, so equality and hashing ignore it, and it cannot be
        assigned."""
        import dataclasses
        import pickle

        from repro.harness.dist import protocol

        cell = Cell.make("table1", small="vegas", large="reno", buffers=15,
                         delay=0.5, seed=3)
        line = json.dumps(protocol.grant("L1", cell, 1, 30.0))
        made = [Cell("table1", cell.params),
                dataclasses.replace(cell),
                dataclasses.replace(cell, params=cell.params),
                pickle.loads(pickle.dumps(cell)),
                protocol.cell_from_grant(json.loads(line))]
        assert {other.key for other in made} == {
            "table1/buffers=15/delay=0.5/large=reno/seed=3/small=vegas"}
        assert all(other == cell and hash(other) == hash(cell)
                   for other in made)
        twin = Cell("table1", cell.params)
        object.__setattr__(twin, "key", "forged")
        assert twin == cell and hash(twin) == hash(cell)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.key = "other"
        with pytest.raises(TypeError):
            Cell("table1", cell.params, key="forged")
        assert cell.key == str(cell) and "key" not in repr(cell)


class TestRegistry:
    def test_every_experiment_has_cells(self):
        for quick in (True, False):
            for experiment in EXPERIMENTS:
                cells = cells_for(experiment, quick=quick)
                assert cells, experiment
                assert all(c.experiment == experiment for c in cells)

    def test_all_cells_unique_keys(self):
        for quick in (True, False):
            cells = all_cells(quick=quick)
            keys = [c.key for c in cells]
            assert len(keys) == len(set(keys))

    def test_quick_is_smaller(self):
        assert len(all_cells(quick=True)) < len(all_cells(quick=False))

    def test_experiment_subset(self):
        cells = all_cells(quick=True, experiments=["telnet", "figure6"])
        assert {c.experiment for c in cells} == {"telnet", "figure6"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError):
            cells_for("table99")


class TestRunner:
    def test_jobs_do_not_change_results(self):
        # In this process vs. forked children, two at a time.
        serial = run_cells(CHEAP_CELLS, jobs=1)
        parallel = run_cells(CHEAP_CELLS, jobs=2, timeout_s=60.0)
        assert [r.key for r in serial.results] == \
               [r.key for r in parallel.results]
        for a, b in zip(serial.results, parallel.results):
            assert a.metrics == b.metrics

    def test_results_sorted_by_key(self):
        report = run_cells(list(reversed(CHEAP_CELLS)), jobs=1)
        keys = [r.key for r in report.results]
        assert keys == sorted(keys)

    def test_metrics_include_events_processed(self):
        report = run_cells(CHEAP_CELLS[:1], jobs=1)
        assert report.results[0].metrics["events_processed"] > 0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_cells(CHEAP_CELLS[:1], jobs=0)


def _failing_cell(seed: int = 0):
    sim = Simulator()

    def boom():
        raise RuntimeError("runner failed mid-run")

    sim.schedule(1.0, boom)
    sim.run()


class TestCellLeavesNothingBehind:
    """A finished cell frees its memory without a full collection."""

    #: A tcplib-background cell: 84 connections in 0.2 s.
    CELL = Cell.make("table1bg", buffers=15, delay=0, large="reno",
                     seed=0, small="reno")

    @staticmethod
    def _live_connections() -> int:
        return sum(1 for obj in gc.get_objects()
                   if isinstance(obj, TCPConnection))

    def test_no_connection_survives_the_cell(self):
        gc.collect()  # garbage of earlier tests is not this cell's
        before = self._live_connections()
        metrics = run_cell(self.CELL)
        # No gc.collect() here: run_cell must have freed the cell.
        assert self._live_connections() == before
        sim = engine.last_simulator()
        assert sim.events_processed == metrics["events_processed"] > 0
        assert sim.far_events_peak == 0
        assert sim.heap_size == 0 and sim.pending_events == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            run_cell(CHEAP_CELLS[0])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_state_is_restored_when_the_runner_raises(self):
        register_experiment("failingx", _failing_cell)
        try:
            assert gc.isenabled()
            with pytest.raises(RuntimeError, match="runner failed"):
                run_cell(Cell.make("failingx", seed=0))
            assert gc.isenabled()
            sim = engine.last_simulator()
            assert sim.events_processed == 0 and sim.heap_size == 0
        finally:
            unregister_experiment("failingx")


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, "hash-a")
        assert cache.get("some/key") is None
        cache.put("some/key", {"metrics": {"x": 1.0}, "wall_clock_s": 0.1})
        payload = cache.get("some/key")
        assert payload["metrics"] == {"x": 1.0}
        assert payload["key"] == "some/key"

    def test_source_hash_partitions_entries(self, tmp_path):
        before = ResultCache(tmp_path, "hash-a")
        before.put("k", {"metrics": {"x": 1.0}})
        after = ResultCache(tmp_path, "hash-b")
        assert after.get("k") is None
        assert before.get("k") is not None  # old namespace intact

    def test_runner_integration(self, tmp_path):
        cache = ResultCache(tmp_path, "h")
        cold = run_cells(CHEAP_CELLS, jobs=1, cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(CHEAP_CELLS)
        warm = run_cells(CHEAP_CELLS, jobs=1, cache=cache)
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(CHEAP_CELLS)
        assert warm.hit_rate == 1.0
        for a, b in zip(cold.results, warm.results):
            assert a.metrics == b.metrics
            assert b.cached

    def test_compute_src_hash_changes_on_edit(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        original = compute_src_hash(tmp_path)
        assert compute_src_hash(tmp_path) == original  # stable
        (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
        assert compute_src_hash(tmp_path) != original
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("")
        assert compute_src_hash(tmp_path) != original  # new file counts

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, "h")
        cache.put("k", {"metrics": {}})
        for entry in tmp_path.rglob("*.json"):
            entry.write_text("{not json")
        assert cache.get("k") is None

    @pytest.mark.parametrize("entry", [
        [1],
        {"key": "k", "metrics": "x"},
        {"key": "k"},
        {"key": "k", "metrics": {"x": "1"}},
        {"key": "k", "metrics": {"x": True}},
        {"key": "k", "metrics": {"x": 1.0}, "wall_clock_s": "slow"},
    ], ids=["list", "metrics-string", "no-metrics", "metric-string",
            "metric-bool", "wall-clock-string"])
    def test_valid_json_that_is_not_a_cell_record_is_a_miss(
            self, tmp_path, entry):
        cache = ResultCache(tmp_path, "h")
        cache.put("k", {"metrics": {"x": 1.0}})
        for path in tmp_path.rglob("*.json"):
            path.write_text(json.dumps(entry))
        assert cache.get("k") is None

    @staticmethod
    def _entry(tmp_path) -> Path:
        (entry,) = tmp_path.rglob("*.json")
        return entry

    @pytest.mark.parametrize("spoil", [
        "invalid-utf8", "empty", "truncated-mid-float", "larger-than-a-chunk",
    ])
    def test_hostile_entry_is_a_miss_and_reruns(self, tmp_path, spoil):
        cache = ResultCache(tmp_path, "h")
        cold = run_cells(CHEAP_CELLS[:1], jobs=1, cache=cache)
        entry = self._entry(tmp_path)
        good = entry.read_bytes()
        entry.write_bytes({
            "invalid-utf8": good[:-1] + b', "\xff": 0}',
            "empty": b"",
            "truncated-mid-float":
                good[:good.index(b".", good.index(b'"metrics"')) + 1],
            # A reader that stopped at the first chunk would serve it.
            "larger-than-a-chunk":
                good + b" " * READ_CHUNK + b"garbage",
        }[spoil])
        assert cache.get(CHEAP_CELLS[0].key) is None
        warm = run_cells(CHEAP_CELLS[:1], jobs=1, cache=cache)
        assert (warm.cache_hits, warm.cache_misses) == (0, 1)
        assert warm.results[0].metrics == cold.results[0].metrics
        assert cache.get(CHEAP_CELLS[0].key) is not None  # rewritten

    @pytest.mark.parametrize("timeout_s", [None, 60.0],
                             ids=["in-process", "supervised"])
    def test_directory_at_the_entry_is_a_typed_error(self, tmp_path,
                                                     timeout_s):
        # The read is a miss and the cell runs again; storing it cannot
        # replace a directory, so the sweep stops with the entry named,
        # no temporary file behind and no worker left running.
        cache = ResultCache(tmp_path, "h")
        run_cells(CHEAP_CELLS[:1], jobs=1, cache=cache)
        entry = self._entry(tmp_path)
        entry.unlink()
        entry.mkdir()
        assert cache.get(CHEAP_CELLS[0].key) is None
        with pytest.raises(ReproError, match=re.escape(str(entry))):
            run_cells(CHEAP_CELLS[:1], jobs=1, cache=cache,
                      timeout_s=timeout_s)
        assert [p.name for p in entry.parent.iterdir()] == [entry.name]
        assert multiprocessing.active_children() == []

    def test_a_failed_put_is_a_typed_error_and_leaves_no_temp(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, "h")
        cache.put("k", {"metrics": {"x": 1.0}})

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(ReproError, match="No space left"):
            cache.put("k2", {"metrics": {"x": 2.0}})
        assert [p.name for p in tmp_path.rglob("*")
                if ".tmp." in p.name] == []

    def test_an_unusable_cache_directory_is_a_typed_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        cache = ResultCache(blocker, "h")
        assert cache.get("k") is None
        with pytest.raises(ReproError, match=re.escape(str(blocker))):
            cache.prepare()
        with pytest.raises(ReproError, match=re.escape(str(blocker))):
            cache.put("k", {"metrics": {"x": 1.0}})

    def test_get_parses_what_put_wrote(self, tmp_path):
        # A hit is the very object `json.load` makes of the file:
        # floats to the last bit, ints as ints, escaped non-ASCII keys,
        # and an entry larger than one read chunk.
        cache = ResultCache(tmp_path, "h")
        records = {
            "plain": {"metrics": {"x": 0.1, "n": 12969, "big": 1e300,
                                  "tiny": 5e-324, "neg": -0.0},
                      "wall_clock_s": 0.12916445399991971},
            "ünïcode/κ=λ": {"metrics": {"débit_kbps": 112.10128737497287,
                                         "事件": 7}},
            "large": {"metrics": {f"m{i:05d}": i / 7
                                  for i in range(READ_CHUNK // 8)}},
        }
        for key, payload in records.items():
            cache.put(key, payload)
        entries = sorted(tmp_path.rglob("*.json"))
        assert max(p.stat().st_size for p in entries) > READ_CHUNK
        for key in records:
            (entry,) = [p for p in entries
                        if json.loads(p.read_text())["key"] == key]
            with open(entry) as handle:
                expected = json.load(handle)
            got = cache.get(key)
            assert got == expected
            assert [type(v) for v in got["metrics"].values()] \
                == [type(v) for v in expected["metrics"].values()]

    def test_src_hash_folds_support_files(self, tmp_path):
        # Tool configuration can change behaviour without touching a
        # .py file; extra_files lets the hash see that.
        (tmp_path / "a.py").write_text("x = 1\n")
        config = tmp_path / "pyproject.toml"
        config.write_text("[tool]\n")
        original = compute_src_hash(tmp_path, extra_files=[config])
        assert compute_src_hash(tmp_path, extra_files=[config]) == original
        config.write_text("[tool.other]\n")
        assert compute_src_hash(tmp_path, extra_files=[config]) != original
        # A missing support file is skipped, not an error.
        ghost = tmp_path / "nope.toml"
        assert compute_src_hash(tmp_path, extra_files=[ghost]) \
            == compute_src_hash(tmp_path)

    def test_default_src_hash_includes_pyproject(self):
        import repro
        from pathlib import Path

        tree = Path(repro.__file__).parent
        # The default namespace folds pyproject.toml in on top of the
        # package tree, so editing it invalidates cached sweeps.
        assert compute_src_hash() != compute_src_hash(tree)
        assert compute_src_hash() == compute_src_hash(
            tree, extra_files=[tree.parents[1] / "pyproject.toml"])


class TestStorageKey:
    """Checked/faulted sweeps live in their own cache namespaces."""

    def test_plain_run_keeps_bare_key(self):
        assert namespace() == ""

    def test_checks_namespaces(self):
        assert namespace(checks=True) == "#checks"
        assert namespace(checks="raise") == "#checks"
        assert namespace(checks="collect") == "#checks=collect"

    def test_faults_namespace_is_canonical(self):
        # Equivalent specs (profile vs explicit, key spelling) map to
        # the same namespace via FaultPlan.describe().
        from repro.faults import PROFILES

        by_profile = namespace(faults="light")
        by_spec = namespace(faults=PROFILES["light"])
        assert by_profile == by_spec
        assert by_profile.startswith("#faults=")
        assert namespace(faults="drop=0.1") != namespace(faults="drop=0.2")

    def test_null_faults_is_plain(self):
        assert namespace(faults=None) == ""
        assert namespace(faults="drop=0") == ""

    def test_runner_does_not_cross_namespaces(self, tmp_path):
        cache = ResultCache(tmp_path, "h")
        plain = run_cells(CHEAP_CELLS[:1], jobs=1, cache=cache)
        assert plain.cache_misses == 1
        checked = run_cells(CHEAP_CELLS[:1], jobs=1, cache=cache,
                            checks="collect")
        assert checked.cache_misses == 1  # plain entry must not serve
        assert checked.results[0].metrics["invariant_violations"] == 0.0
        warm = run_cells(CHEAP_CELLS[:1], jobs=1, cache=cache,
                         checks="collect")
        assert warm.cache_hits == 1
        # The checked run's dynamics are identical to the plain run's.
        plain_metrics = plain.results[0].metrics
        for name, value in plain_metrics.items():
            assert checked.results[0].metrics[name] == value


class TestSeedStability:
    def test_cell_is_bit_identical_across_runs(self):
        """One registry cell executed twice in-process produces
        bit-identical metrics and artifact fingerprints — the property
        every cache hit and CI comparison silently relies on."""
        cell = CHEAP_CELLS[0]
        first = run_cells([cell], jobs=1)
        second = run_cells([cell], jobs=1)
        assert first.results[0].metrics == second.results[0].metrics
        doc_a = build_document(first, mode="quick", src_hash="s")
        doc_b = build_document(second, mode="quick", src_hash="s")
        assert cells_fingerprint(doc_a) == cells_fingerprint(doc_b)

        def stable(doc):
            # Wall-clock and cache provenance are bookkeeping, not
            # results; everything else must reproduce exactly.
            return json.dumps(
                [{k: v for k, v in cell.items()
                  if k not in ("wall_clock_s", "cached")}
                 for cell in doc["cells"]], sort_keys=True)

        assert stable(doc_a) == stable(doc_b)


def _document(metric=100.0, key_suffix=""):
    """A minimal one-cell artifact for checker tests."""
    return {
        "schema_version": "repro-harness/v3",
        "mode": "quick",
        "src_hash": "x",
        "run": {"jobs": 1, "cache_hits": 0, "cache_misses": 1,
                "cells": 1, "elapsed_s": 0.0, "cell_wall_clock_s": 0.0},
        "cells": [{
            "key": f"sendbuf/cc=reno/seed=0/size_kb=5{key_suffix}",
            "experiment": "sendbuf",
            "params": {"cc": "reno", "seed": 0, "size_kb": 5},
            "metrics": {"throughput_kbps": metric, "coarse_timeouts": 0},
            "wall_clock_s": 0.1,
            "cached": False,
        }],
    }


class TestArtifacts:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = _document()
        write_document(str(path), doc)
        assert load_document(str(path)) == doc

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = _document()
        doc["schema_version"] = "repro-harness/v999"
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError):
            load_document(str(path))

    def test_fingerprint_ignores_bookkeeping(self):
        a, b = _document(), _document()
        b["cells"][0]["wall_clock_s"] = 99.0
        b["cells"][0]["cached"] = True
        b["run"]["jobs"] = 8
        assert cells_fingerprint(a) == cells_fingerprint(b)
        b["cells"][0]["metrics"]["throughput_kbps"] += 1.0
        assert cells_fingerprint(a) != cells_fingerprint(b)

    def test_build_document_from_report(self):
        report = run_cells(CHEAP_CELLS[:1], jobs=1)
        doc = build_document(report, mode="quick", src_hash="abc")
        assert doc["schema_version"] == "repro-harness/v3"
        assert doc["src_hash"] == "abc"
        assert doc["run"]["cells"] == 1
        assert doc["run"]["backend"] == "local"
        assert doc["run"]["interrupted"] is False
        cell = doc["cells"][0]
        assert cell["key"] == CHEAP_CELLS[0].key
        assert cell["params"] == {"cc": "reno", "seed": 0, "size_kb": 5}
        assert cell["metrics"]["throughput_kbps"] > 0
        assert cell["worker"] is None and cell["attempts"] == 1


class TestCheck:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_identical_documents_pass(self, tmp_path, capsys):
        results = self._write(tmp_path, "r.json", _document())
        expected = self._write(tmp_path, "e.json", _document())
        assert main(["check", results, expected]) == 0
        assert "OK" in capsys.readouterr().out

    def test_within_tolerance_passes(self, tmp_path):
        results = self._write(tmp_path, "r.json", _document(metric=110.0))
        expected = self._write(tmp_path, "e.json", _document(metric=100.0))
        assert main(["check", results, expected, "--tolerance", "0.15"]) == 0

    def test_drift_fails(self, tmp_path, capsys):
        results = self._write(tmp_path, "r.json", _document(metric=130.0))
        expected = self._write(tmp_path, "e.json", _document(metric=100.0))
        assert main(["check", results, expected, "--tolerance", "0.15"]) == 1
        assert "throughput_kbps" in capsys.readouterr().out

    def test_missing_cell_fails(self, tmp_path, capsys):
        doc = _document()
        doc["cells"] = []
        results = self._write(tmp_path, "r.json", doc)
        expected = self._write(tmp_path, "e.json", _document())
        assert main(["check", results, expected]) == 1
        assert "missing cell" in capsys.readouterr().out

    def test_extra_cell_is_noted_but_passes(self, tmp_path, capsys):
        extra = _document()
        extra["cells"].append(dict(extra["cells"][0],
                                   key="sendbuf/cc=reno/seed=0/size_kb=99"))
        results = self._write(tmp_path, "r.json", extra)
        expected = self._write(tmp_path, "e.json", _document())
        assert main(["check", results, expected]) == 0
        assert "not in baseline" in capsys.readouterr().out

    def test_unreadable_input_exits_2(self, tmp_path):
        expected = self._write(tmp_path, "e.json", _document())
        assert main(["check", str(tmp_path / "absent.json"), expected]) == 2

    @pytest.mark.parametrize("cells,problem", [
        ([{"metrics": {"x": 1.0}}], "cell 0 has no string 'key'"),
        ([1], "cell 0 is not an object"),
        ([{"key": "k", "metrics": {"x": "abc"}}],
         "cell 0 has a non-numeric metric 'x': 'abc'"),
        ([{"key": "k", "metrics": {"x": None}}],
         "cell 0 has a non-numeric metric 'x': None"),
        ([{"key": "k", "metrics": {"x": True}}],
         "cell 0 has a non-numeric metric 'x': True"),
        ([{"key": "k", "metrics": "x"}], "cell 0 has no 'metrics' object"),
    ], ids=["no-key", "not-an-object", "string-metric", "null-metric",
            "bool-metric", "metrics-not-an-object"])
    @pytest.mark.parametrize("side", ["results", "expected"])
    def test_malformed_cells_exit_2_not_drift(self, tmp_path, capsys,
                                              cells, problem, side):
        bad = _document()
        bad["cells"] = cells
        paths = {"results": self._write(tmp_path, "r.json", _document()),
                 "expected": self._write(tmp_path, "e.json", _document())}
        paths[side] = self._write(tmp_path, "bad.json", bad)
        assert main(["check", paths["results"], paths["expected"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: '{paths[side]}': {problem}" in captured.err

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path,
                                                       capsys, tolerance):
        doc = self._write(tmp_path, "r.json", _document())
        assert main(["check", doc, doc, "--tolerance", tolerance]) == 2
        assert ("error: --tolerance must be a finite number >= 0"
                in capsys.readouterr().err)

    def test_near_zero_metrics_use_absolute_floor(self):
        # 0 expected timeouts vs 0 actual passes; vs 2 actual fails.
        assert check._within(0, 0, 0.15)
        assert not check._within(2, 0, 0.15)


class TestAggregate:
    def test_summarize_renders_each_experiment(self):
        report = run_cells(CHEAP_CELLS, jobs=1)
        doc = build_document(report, mode="quick", src_hash="x")
        text = summarize(doc["cells"])
        assert "send-buffer sweep" in text
        assert "Reno KB/s" in text
        # Every experiment of the committed quick sweep has a renderer.
        pinned = load_document(str(Path(__file__).parents[1] / "baselines"
                                   / "expected.json"))["cells"]
        assert {c["experiment"] for c in pinned} == set(EXPERIMENTS)
        assert "no aggregator" not in summarize(pinned)

    def test_unknown_experiment_does_not_crash(self):
        cells = [{"key": "mystery/seed=0", "experiment": "mystery",
                  "params": {"seed": 0}, "metrics": {"x": 1.0}}]
        assert "mystery" in summarize(cells)


class TestCliRunAll:
    def test_run_all_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "results.json"
        assert main(["run-all", "--quick", "--experiments", "sendbuf",
                     "--jobs", "1", "--json", str(out_json),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        captured = capsys.readouterr()
        assert "send-buffer sweep" in captured.out
        assert "cell fingerprint:" in captured.out
        doc = load_document(str(out_json))
        assert doc["mode"] == "quick"
        assert all(c["experiment"] == "sendbuf" for c in doc["cells"])

    def test_list_mentions_run_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "run-all" in out and "solo" in out
