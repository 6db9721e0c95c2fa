"""Tests for the telemetry subsystem (repro.obs).

The two load-bearing contracts:

* **bit-identity** — arming the gauge sampler changes nothing about a
  run: ``events_processed`` and every metric are identical with
  telemetry on and off, because the sampler only reads state from the
  engine loop and never schedules an event;
* **robustness** — the JSONL sink never raises into instrumented code,
  and the report CLI turns malformed telemetry into exit code 2 (the
  CI smoke gate).
"""

import json
import re

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.harness import Cell
from repro.harness.registry import run_cell
from repro.harness.runner import run_cells
from repro.obs import (
    TELEMETRY_SCHEMA,
    GaugeSampler,
    TelemetrySink,
    load_events,
    observing,
    render_report,
)
from repro.sim import observers

from helpers import make_pair, run_transfer

#: A sub-second real cell for harness-level telemetry tests.
CHEAP = Cell.make("sendbuf", cc="reno", size_kb=5, seed=0)


class TestTelemetrySink:
    def test_writes_jsonl_with_schema_on_first_event(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetrySink(path, run_id="r1") as sink:
            sink.emit("alpha", value=1)
            sink.emit("beta", value=2)
        events = load_events(path)
        assert [e["event"] for e in events] == ["alpha", "beta"]
        assert events[0]["schema"] == TELEMETRY_SCHEMA
        assert "schema" not in events[1]
        assert all(e["run_id"] == "r1" for e in events)
        assert all("ts" in e for e in events)

    def test_span_emits_paired_events_with_duration(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetrySink(path) as sink:
            with sink.span("cell", cell="k"):
                pass
        start, end = load_events(path)
        assert start["event"] == "cell.start"
        assert end["event"] == "cell.end"
        assert start["span_id"] == end["span_id"]
        assert end["ok"] is True
        assert end["duration_s"] >= 0.0

    def test_span_marks_failure_and_reraises(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetrySink(path) as sink:
            with pytest.raises(ValueError):
                with sink.span("cell", cell="k"):
                    raise ValueError("boom")
        _, end = load_events(path)
        assert end["ok"] is False

    def test_appends_across_sinks_like_forked_workers(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetrySink(path, run_id="parent") as sink:
            sink.emit("one")
        with TelemetrySink(path, run_id="worker") as sink:
            sink.emit("two")
        assert [e["run_id"] for e in load_events(path)] == ["parent", "worker"]

    def test_unwritable_path_disables_instead_of_raising(self, tmp_path):
        sink = TelemetrySink(str(tmp_path / "no" / "such" / "dir" / "t.jsonl"))
        assert not sink.enabled
        sink.emit("anything")          # must not raise
        assert sink.events_written == 0
        assert sink.last_error

    def test_load_events_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "ok", "ts": 1}\nnot json\n')
        with pytest.raises(ReproError, match="malformed"):
            load_events(str(path))

    def test_load_events_rejects_records_without_event(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 1}\n')
        with pytest.raises(ReproError, match="no 'event' field"):
            load_events(str(path))

    @pytest.mark.parametrize("record,problem", [
        ('{"event": 5}', "'event' is not a string: 5"),
        ('{"event": "sweep.end", "duration_s": "abc"}',
         "field 'duration_s' is not a number: 'abc'"),
        ('{"event": "cell.end", "ts": null}', "field 'ts' is not a number"),
        ('{"event": "gauge", "queues": [1]}',
         "'queues' is not a list of queue objects"),
        ('{"event": "gauge", "queues": [{"name": "q", "depth": "x"}]}',
         "'queues' is not a list of queue objects"),
    ], ids=["event-not-a-string", "duration-not-a-number", "ts-null",
            "queue-not-an-object", "queue-depth-not-a-number"])
    def test_load_events_rejects_fields_the_report_computes_with(
            self, tmp_path, record, problem):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "ok", "ts": 1}\n' + record + "\n")
        expected = re.escape(f"bad.jsonl:2: telemetry {problem}")
        with pytest.raises(ReproError, match=expected):
            load_events(str(path))

    def test_report_exits_2_on_malformed_telemetry(self, tmp_path, capsys):
        from repro.harness import build_document, write_document

        doc = str(tmp_path / "r.json")
        write_document(doc, build_document(run_cells([]), mode="quick",
                                           src_hash="x"))
        events = tmp_path / "bad.jsonl"
        events.write_text('{"event": "gauge", "queues": [1]}\n')
        assert main(["report", doc, "--telemetry", str(events)]) == 2
        assert "bad.jsonl:1: telemetry" in capsys.readouterr().err

    def test_load_events_rejects_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_events(str(tmp_path / "absent.jsonl"))


class TestRuntime:
    def test_activate_is_exclusive(self):
        sampler = observers.Instrument()
        with observers.armed(gauges=sampler):
            assert observers.get("gauges") is sampler
            with pytest.raises(RuntimeError, match="already active"):
                with observers.armed(gauges=observers.Instrument()):
                    pass  # pragma: no cover
            assert observers.get("gauges") is sampler
        assert observers.get("gauges") is None

    def test_observing_builds_and_closes_own_sink(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with observing(path=path) as sampler:
            assert observers.get("gauges") is sampler
            sampler.sink.emit("inside")
        assert observers.get("gauges") is None
        assert not sampler.sink.enabled   # closed on exit
        assert [e["event"] for e in load_events(path)] == ["inside"]

    def test_observing_closes_its_sink_when_refused(self, tmp_path,
                                                    monkeypatch):
        """A sink ``observing(path=...)`` opened never outlives it: not
        when the sampler's arguments are bad, not when arming is refused."""
        opened = []
        real_init = TelemetrySink.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            opened.append(self)

        monkeypatch.setattr(TelemetrySink, "__init__", recording_init)
        path = str(tmp_path / "t.jsonl")
        with pytest.raises(TypeError):
            with observing(path=path, no_such_option=1):
                pass  # pragma: no cover
        with observing(path=path) as outer:
            with pytest.raises(RuntimeError, match="already active"):
                with observing(path=path):
                    pass  # pragma: no cover
            assert observers.get("gauges") is outer
        assert len(opened) == 3
        assert not any(sink.enabled for sink in opened)

    def test_observing_requires_sampler_or_path(self):
        with pytest.raises(ValueError):
            with observing():
                pass  # pragma: no cover


class TestGauges:
    def _transfer(self, nbytes=30 * 1024):
        pair = make_pair()
        run_transfer(pair, nbytes)
        return pair.sim

    def test_gauges_emitted_with_connection_and_queue_state(self, tmp_path):
        path = str(tmp_path / "g.jsonl")
        with observing(path=path, sample_every=256) as sampler:
            self._transfer()
        assert sampler.samples_taken > 1
        gauges = [e for e in load_events(path) if e["event"] == "gauge"]
        assert gauges[-1]["final"] is True
        assert gauges[-1]["events_processed"] > 0
        flows = {c["flow"] for g in gauges for c in g["connections"]}
        assert flows                      # both endpoints registered
        names = {q["name"] for g in gauges for q in g["queues"]}
        assert any("bottleneck" in n or "lan" in n for n in names)
        for gauge in gauges:
            for conn in gauge["connections"]:
                assert conn["cwnd"] > 0
                assert conn["flight"] >= 0

    def test_events_processed_bit_identical_with_gauges_armed(self, tmp_path):
        baseline = self._transfer()
        with observing(path=str(tmp_path / "g.jsonl"), sample_every=64):
            armed = self._transfer()
        assert armed.events_processed == baseline.events_processed

    def test_cell_key_stamped_on_gauges(self, tmp_path):
        path = str(tmp_path / "g.jsonl")
        with TelemetrySink(path) as sink:
            sampler = GaugeSampler(sink, sample_every=512, cell="exp/x=1")
            with observing(sampler):
                self._transfer()
        gauges = [e for e in load_events(path) if e["event"] == "gauge"]
        assert gauges and all(g["cell"] == "exp/x=1" for g in gauges)


class TestHarnessTelemetry:
    def test_run_cell_metrics_identical_with_telemetry(self, tmp_path):
        plain = run_cell(CHEAP)
        traced = run_cell(CHEAP, telemetry=str(tmp_path / "t.jsonl"))
        assert traced == plain            # includes events_processed

    def test_run_cells_writes_sweep_cell_and_cache_events(self, tmp_path):
        from repro.harness import ResultCache

        path = str(tmp_path / "t.jsonl")
        cache = ResultCache(str(tmp_path / "cache"), "deadbeef" * 8)
        run_cells([CHEAP], jobs=1, cache=cache, telemetry=path)
        run_cells([CHEAP], jobs=1, cache=cache, telemetry=path)
        events = [e["event"] for e in load_events(path)]
        assert events.count("sweep.start") == 2
        assert events.count("sweep.end") == 2
        assert events.count("cell.start") == 1   # second sweep was cached
        assert events.count("cell.end") == 1
        assert events.count("cache.hit") == 1
        assert events.count("gauge") >= 1

    def test_supervised_run_appends_cell_span(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        report = run_cells([CHEAP], jobs=1, timeout_s=60.0, telemetry=path)
        assert report.ok
        events = [e["event"] for e in load_events(path)]
        assert "cell.start" in events and "cell.end" in events

    def test_report_counts_retries_of_a_local_supervised_run(self, tmp_path):
        # A `--jobs` run's retries reach `repro report`: it rides the
        # same master as `--bind`, so the retry names its worker
        # and the report carries the counters and the per-worker section.
        from repro.harness import build_document
        from repro.harness.dist.chaos import CHAOS_EXPERIMENT

        path = str(tmp_path / "t.jsonl")
        flaky = Cell.make(CHAOS_EXPERIMENT, mode="flaky", seed=0,
                          scratch=str(tmp_path))
        report = run_cells([flaky], jobs=1, timeout_s=60.0, retries=1,
                           backoff_base=0.01, telemetry=path)
        assert report.ok and report.results[0].attempts == 2
        events = load_events(path)
        (retry,) = [e for e in events if e["event"] == "cell.retry"]
        assert retry["cell"] == flaky.key and retry["kind"] == "crash"
        assert retry["worker"] == "w1"
        text = render_report(
            build_document(report, mode="quick", src_hash="h"), events=events)
        assert "## Scheduler counters" in text
        assert re.search(r"\| attempts retried\s*\| 1\s*\|", text)
        assert re.search(r"\| leases granted\s*\| 2\s*\|", text)
        assert "### Per-worker cells" in text


class TestReport:
    def _doc(self):
        return {
            "schema_version": "repro-harness/v3",
            "mode": "quick",
            "src_hash": "f" * 64,
            "run": {"jobs": 2, "cache_hits": 1, "cache_misses": 1,
                    "cells": 2, "failed": 1, "elapsed_s": 3.0,
                    "cell_wall_clock_s": 2.5},
            "cells": [
                {"key": "table2/proto=reno/seed=0", "experiment": "table2",
                 "params": {"proto": "reno", "seed": 0},
                 "metrics": {"throughput_kbps": 60.0, "retransmit_kb": 40.0,
                             "events_processed": 1000},
                 "wall_clock_s": 1.5, "cached": False},
                {"key": "table2/proto=vegas-1,3/seed=0",
                 "experiment": "table2",
                 "params": {"proto": "vegas-1,3", "seed": 0},
                 "metrics": {"throughput_kbps": 90.0, "retransmit_kb": 10.0,
                             "events_processed": 900},
                 "wall_clock_s": 1.0, "cached": True},
            ],
            "failures": [
                {"key": "table4/proto=reno/seed=1", "experiment": "table4",
                 "kind": "timeout", "message": "exceeded 120s",
                 "attempts": 2, "wall_clock_s": 240.0},
            ],
        }

    def test_render_covers_headline_timings_and_failures(self):
        text = render_report(self._doc())
        assert "Per-experiment timings" in text
        assert "Vegas vs Reno" in text
        assert "throughput_kbps" in text
        assert "1.50x" in text            # 90 / 60
        assert "timeout: 1" in text
        assert "50% hit ratio" in text

    def test_zero_reference_headline_renders_na_not_infinity(self):
        # A 0.0 reno reference used to emit float("inf"), which
        # json.dumps writes as non-compliant `Infinity` in artifacts.
        doc = self._doc()
        doc["cells"][0]["metrics"]["throughput_kbps"] = 0.0
        text = render_report(doc)
        assert "n/a" in text
        assert "inf" not in text.lower()

    def test_render_includes_telemetry_sections(self):
        events = [
            {"event": "cell.start", "span_id": "a:1", "ts": 1.0},
            {"event": "cell.end", "span_id": "a:1", "ts": 2.0,
             "ok": True, "duration_s": 1.0},
            {"event": "gauge", "ts": 1.5, "events_per_sec": 100.0,
             "queues": [{"name": "q0", "depth": 3, "drops": 2,
                         "max_depth": 7}]},
        ]
        text = render_report(self._doc(), events=events)
        assert "Span durations" in text
        assert "peak depth 7" in text and "2 drops" in text

    def test_dist_section_derives_startup_and_grant_gap(self):
        def at(ts, event, **fields):
            return {"event": event, "ts": ts, **fields}

        events = [
            at(10.000, "dist.start", workers=2),
            at(10.010, "dist.worker.join", worker="w1"),
            at(10.011, "dist.lease.grant", worker="w1"),   # no cell before
            at(10.030, "dist.worker.join", worker="w2"),
            at(10.500, "cell.end", worker="w1"),
            at(10.502, "dist.lease.grant", worker="w1"),
            at(10.600, "cell.end", worker="w2"),
            at(10.606, "dist.lease.grant", worker="w2"),
            at(10.700, "cell.end"),                        # in-process
            at(12.000, "dist.worker.join", worker="w3"),   # a respawn
        ]
        text = render_report(self._doc(), events=events)
        assert "joined): 30 ms" in text
        assert "mean 4.0 ms, max 6.0 ms (2 grants)" in text
        assert "startup" not in render_report(self._doc(), events=events[4:])

    def test_main_renders_real_artifact(self, tmp_path, capsys):
        from repro.harness.artifacts import write_document

        doc_path = str(tmp_path / "r.json")
        write_document(doc_path, self._doc())
        tel = tmp_path / "t.jsonl"
        tel.write_text(json.dumps({"event": "gauge", "ts": 1.0}) + "\n")
        assert main(["report", doc_path, "--telemetry", str(tel)]) == 0
        assert "# repro run report" in capsys.readouterr().out

    def test_main_exits_2_on_schema_errors(self, tmp_path, capsys):
        from repro.harness.artifacts import write_document

        doc_path = str(tmp_path / "r.json")
        write_document(doc_path, self._doc())
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["report", doc_path, "--telemetry", str(bad)]) == 2
        assert main(["report", str(tmp_path / "absent.json")]) == 2

    def test_main_writes_out_file(self, tmp_path):
        from repro.harness.artifacts import write_document

        doc_path = str(tmp_path / "r.json")
        write_document(doc_path, self._doc())
        out = tmp_path / "report.md"
        assert main(["report", doc_path, "--out", str(out)]) == 0
        assert out.read_text().startswith("# repro run report")


class TestCliIntegration:
    def test_report_subcommand_via_cli(self, tmp_path, capsys):
        from repro import cli
        from repro.harness.artifacts import write_document

        doc_path = str(tmp_path / "r.json")
        write_document(doc_path, TestReport()._doc())
        assert cli.main(["report", doc_path, "--top", "2"]) == 0
        assert "repro run report" in capsys.readouterr().out

    def test_check_gate_event_with_telemetry(self, tmp_path, capsys):
        from repro.harness.artifacts import write_document

        doc = TestReport()._doc()
        doc["failures"] = []
        doc_path = str(tmp_path / "r.json")
        write_document(doc_path, doc)
        tel = str(tmp_path / "t.jsonl")
        code = main(["check", doc_path, doc_path, "--telemetry", tel])
        assert code == 0
        gates = [e for e in load_events(tel) if e["event"] == "gate"]
        assert len(gates) == 1
        assert gates[0]["exit_code"] == 0
        assert gates[0]["quarantined"] == 0
