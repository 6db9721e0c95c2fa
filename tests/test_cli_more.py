"""Additional CLI command coverage (fast variants of the slow paths)."""

import os
import re

import pytest

from repro.cli import main


def run_all(*argv):
    """``run-all --no-cache`` over *argv*; the exit code."""
    return main(["run-all", "--no-cache", *argv])


@pytest.mark.usefixtures("run_all_shares_cells")
class TestMoreCommands:
    def test_table4_single_seed(self, capsys):
        assert run_all("--experiments", "table4", "--seeds", "1") == 0
        out = capsys.readouterr().out
        assert "UA->NIH" in out and "vegas-2,4" in out

    def test_table5_single_seed(self, capsys):
        assert run_all("--experiments", "table5", "--seeds", "1") == 0
        out = capsys.readouterr().out
        assert "128 KB transfers" in out
        assert "1024 KB transfers" in out

    @pytest.mark.slow
    def test_twoway_single_seed(self, capsys):
        assert run_all("--experiments", "twoway", "--seeds", "1") == 0
        out = capsys.readouterr().out
        assert "two-way" in out

    def test_figure9(self, capsys):
        assert run_all("--experiments", "figure9") == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "CAM decisions" in out

    @pytest.mark.slow
    def test_table3_single_seed(self, capsys):
        assert run_all("--experiments", "table3", "--seeds", "1") == 0
        out = capsys.readouterr().out
        assert "background CC" in out


# ----------------------------------------------------------------------
# Every paper artifact is `run-all --experiments X`: one case list, each
# artifact at its cheapest arguments, with the grid those arguments
# select.
# ----------------------------------------------------------------------

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir,
                        "baselines", "expected.json")


def _artifact(name, *flags, slow=False, **grid):
    return pytest.param(["--experiments", name, *flags], name, grid,
                        id=" ".join((name,) + flags),
                        marks=[pytest.mark.slow] if slow else [])


PAPER_ARTIFACTS = [
    _artifact("table1", "--quick", quick=True),
    _artifact("table2", "--seeds", "1", seeds=range(1), slow=True),
    _artifact("table3", "--seeds", "1", seeds=range(1), slow=True),
    _artifact("table4", "--seeds", "2", seeds=range(2)),
    _artifact("table5", "--seeds", "2", seeds=range(2)),
    _artifact("sendbuf"),
    _artifact("fairness"),
    _artifact("twoway", "--seeds", "1", seeds=range(1), slow=True),
    _artifact("telnet", "--seeds", "1", seeds=range(1)),
]


def footer(doc):
    """The two lines ``run-all`` prints after the tables."""
    from repro.harness.artifacts import cells_fingerprint

    return (rf"{len(doc['cells'])} cells, jobs=\d+, [\d.]+s elapsed "
            r"\(cell wall clock [\d.]+s\); cache: \d+ hits / \d+ misses\n"
            rf"cell fingerprint: {cells_fingerprint(doc)}\n")


@pytest.mark.usefixtures("run_all_shares_cells")
class TestPaperVerbs:
    @pytest.mark.parametrize("argv,name,grid", PAPER_ARTIFACTS)
    def test_verb_prints_its_registry_cells(self, argv, name, grid, capsys,
                                            run_shared):
        """stdout is ``aggregate.summarize`` over the grid the arguments
        select plus the footer, and every cell the quick baseline pins
        has its numbers."""
        from repro.harness import build_document, cells_for, load_document
        from repro.harness.aggregate import summarize

        assert run_all(*argv) == 0
        out = capsys.readouterr().out
        report = run_shared(cells_for(name, **grid))
        doc = build_document(report, mode="test", src_hash="")
        table = summarize(doc["cells"]) + "\n\n"
        assert out.startswith(table)
        assert re.fullmatch(footer(doc), out[len(table):])

        pinned = {cell["key"]: cell["metrics"]
                  for cell in load_document(BASELINE)["cells"]}
        gated = [cell for cell in doc["cells"] if cell["key"] in pinned]
        assert gated, "no cell of this artifact is in the quick baseline"
        for cell in gated:
            assert cell["metrics"] == pinned[cell["key"]], cell["key"]

    def test_seed_is_the_base_of_the_seed_axis(self, capsys):
        """``--seed 1 --seeds 1`` prints the baseline's own ``seed=1``
        cells; ``--seed 1`` alone means one seed, and differs from the
        default base 0."""
        from repro.harness import load_document
        from repro.harness.aggregate import summarize

        pinned = [cell for cell in load_document(BASELINE)["cells"]
                  if cell["experiment"] == "table4"
                  and cell["params"]["seed"] == 1]
        assert len(pinned) == 3
        table = summarize(pinned) + "\n\n"
        assert run_all("--experiments", "table4", "--seeds", "1",
                       "--seed", "1") == 0
        assert capsys.readouterr().out.startswith(table)
        assert run_all("--experiments", "table4", "--seed", "1") == 0
        assert capsys.readouterr().out.startswith(table)
        assert run_all("--experiments", "table4", "--seeds", "1") == 0
        assert not capsys.readouterr().out.startswith(table)

    def test_no_seed_flag_keeps_each_grid_axis(self, monkeypatch):
        """Without ``--seed``/``--seeds`` every grid keeps its own seeds
        (figure4's seed 3, the two of quick table4): ``run-all --quick``
        still sweeps the baseline's 161 cells."""
        from repro.harness import load_document, runner

        swept = []

        def record(cells, **kwargs):
            swept.extend(cell.key for cell in cells)
            return runner.RunReport(interrupted=True)

        monkeypatch.setattr(runner, "run_cells", record)
        assert run_all("--quick") == 130
        assert len(swept) == 161
        assert sorted(swept) == sorted(
            cell["key"] for cell in load_document(BASELINE)["cells"])

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("experiment", ["table3", "table4"])
    def test_seeds_below_one_is_a_usage_error(self, experiment, count,
                                              capsys, no_cells_run):
        assert run_all("--experiments", experiment, "--seeds", count) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --seeds must be >= 1, got {count}" in captured.err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_solo_size_below_one_is_a_usage_error(self, size, capsys):
        assert main(["solo", "--size-kb", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --size-kb must be >= 1, got {size}" in captured.err

    def test_interrupted_verb_prints_no_table(self, monkeypatch, capsys):
        """``run_cells`` drains a Ctrl-C into the report: what did run
        must not pass for the whole table, so the sweep ends on the
        INTERRUPTED notice and exit 130."""
        from repro.harness import runner

        monkeypatch.setattr(
            runner, "run_cells",
            lambda cells, **kwargs: runner.RunReport(
                interrupted=True, cache_misses=len(cells)))
        assert run_all("--experiments", "table4", "--seeds", "1") == 130
        out = capsys.readouterr().out
        assert "INTERRUPTED: sweep drained with 0/3 cells settled" in out
        assert "Table 4" not in out


# ----------------------------------------------------------------------
# run-all has one option table and one validator
# (repro.harness.options): one case list, the whole sweep and the arena.
# ----------------------------------------------------------------------

SWEEP_VERBS = {
    "run-all": ["run-all", "--quick"],
    "arena": ["run-all", "--quick", "--experiments", "arena"],
}

BAD_VALUES = [
    (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["--retries", "-1"], "--retries must be >= 0, got -1"),
    (["--timeout", "0"], "--timeout must be positive, got 0.0"),
    (["--timeout", "nan"], "--timeout must be finite, got nan"),
    (["--watchdog", "-1"], "--watchdog must be positive, got -1.0"),
    (["--bind", "127.0.0.1:0", "--jobs", "-1"],
     "--jobs must be >= 0, got -1"),
    (["--json", "{missing}/x.json"], "--json: cannot write"),
    (["--cache-dir", "{file}", "--jobs", "1"],
     "cannot use cache directory '{file}'"),
    (["--cache-dir", "{file}", "--no-timeout"],
     "cannot use cache directory '{file}'"),
]


@pytest.fixture
def no_cells_run(monkeypatch):
    """Fail the test if a sweep reaches the runner."""
    from repro.harness import runner

    def refuse(cells, **kwargs):
        raise AssertionError(f"{len(cells)} cell(s) reached run_cells")

    monkeypatch.setattr(runner, "run_cells", refuse)


class TestSweepOptionTable:
    @pytest.mark.parametrize("flags,message", BAD_VALUES,
                             ids=[" ".join(f) for f, _ in BAD_VALUES])
    @pytest.mark.parametrize("verb", sorted(SWEEP_VERBS))
    def test_bad_value_is_one_usage_error(self, verb, flags, message,
                                          tmp_path, capsys, no_cells_run):
        blocker = tmp_path / "file"  # a regular file where a directory goes
        blocker.write_text("")
        paths = {"missing": tmp_path / "missing", "file": blocker}
        flags = [f.format(**paths) for f in flags]
        assert main(SWEEP_VERBS[verb] + flags) == 2
        assert f"error: {message.format(**paths)}" in capsys.readouterr().err

    def test_write_document_failure_is_typed(self, tmp_path):
        from repro.errors import ReproError
        from repro.harness.artifacts import write_document

        with pytest.raises(ReproError, match="cannot write"):
            write_document(str(tmp_path / "missing" / "x.json"), {})
        assert list(tmp_path.iterdir()) == []

    def test_lease_table_rejects_a_deadline_that_cannot_expire(self):
        from repro.harness.lease import LeaseTable

        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="timeout_s"):
                LeaseTable([], timeout_s=bad, retries=0)

    @pytest.mark.skipif(os.name != "posix", reason="dist workers are forks")
    def test_arena_is_transport_independent(self, tmp_path):
        """The arena's classic solo cells give the same numbers on the
        local pool and through a listening master: tolerance 0."""
        from repro.harness.artifacts import cells_fingerprint, load_document

        matrix = ["run-all", "--quick", "--experiments", "arena", "--only",
                  "arena/mode=solo/scenario=classic", "--no-cache"]
        local, dist = str(tmp_path / "l.json"), str(tmp_path / "d.json")
        assert main(matrix + ["--jobs", "2", "--json", local]) == 0
        assert main(matrix + ["--jobs", "2", "--bind", "127.0.0.1:0",
                              "--json", dist]) == 0
        assert main(["check", dist, local, "--tolerance", "0"]) == 0
        doc = load_document(dist)
        assert doc["run"]["backend"] == "dist"
        assert load_document(local)["run"]["backend"] == "local"
        assert doc["run"]["jobs"] == 2
        assert {c["worker"] for c in doc["cells"]} != {None}
        assert cells_fingerprint(doc) == \
            cells_fingerprint(load_document(local))

    @pytest.mark.parametrize("flags,jobs,dist_options", [
        ([], None, None),
        (["--jobs", "3"], 3, None),
        (["--jobs", "3", "--bind", "127.0.0.1:0"], 3,
         {"workers": 3, "bind": "127.0.0.1:0", "chaos_kill_after": None}),
        # Attach-only: a master nobody reaches degrades to the cpu count.
        (["--jobs", "0", "--bind", "0.0.0.0:7077"], None,
         {"workers": 0, "bind": "0.0.0.0:7077", "chaos_kill_after": None}),
        (["--bind", "127.0.0.1:0", "--chaos-kill-after", "2"], None,
         {"workers": os.cpu_count() or 1, "bind": "127.0.0.1:0",
          "chaos_kill_after": 2}),
    ], ids=["default", "jobs", "jobs+bind", "attach-only", "bind"])
    def test_jobs_and_bind_pick_the_transport(self, flags, jobs,
                                              dist_options, monkeypatch):
        """``--bind`` is what makes a sweep ``dist``; ``--jobs`` is the
        workers the master forks either way."""
        from repro.harness import runner

        seen = {}

        def record(cells, **kwargs):
            seen.update(kwargs)
            return runner.RunReport(interrupted=True)

        monkeypatch.setattr(runner, "run_cells", record)
        assert run_all("--experiments", "sendbuf", *flags) == 130
        assert seen["jobs"] == jobs
        assert seen["backend"] == ("local" if dist_options is None
                                   else "dist")
        assert seen["dist_options"] == dist_options

    def test_interrupted_arena_exits_130(self, monkeypatch, capsys):
        from repro.harness import runner

        monkeypatch.setattr(
            runner, "run_cells",
            lambda cells, **kwargs: runner.RunReport(
                interrupted=True, cache_misses=len(cells)))
        assert run_all("--quick", "--experiments", "arena") == 130
        out = capsys.readouterr().out
        assert "INTERRUPTED: sweep drained with 0/23 cells settled" in out
        assert "Arena league" not in out


# ----------------------------------------------------------------------
# `repro profile` takes a harness cell key and checks it before running.
# ----------------------------------------------------------------------

class TestProfileVerb:
    def test_profiles_a_cell_key(self, capsys):
        assert main(["profile", "figure6/seed=0", "--limit", "3"]) == 0
        assert "probe: 9960 events, peak_heap 25" in capsys.readouterr().out

    def test_every_printed_key_resolves_to_its_cell(self):
        """Keys as ``run-all`` prints them, booleans as ``true``/``false``
        included, parse back to the cell that printed them."""
        from repro.harness.registry import all_cells
        from repro.perf.profile import resolve_cell

        for cell in all_cells(quick=True):
            assert resolve_cell(cell.key) == cell, cell.key

    @pytest.mark.parametrize("key,named", [
        ("nosuch/seed=0", "known: "),
        ("figure6/seed=0/extra=3", "figure6 takes seed=..."),
        ("figure6/seed", "figure6 takes seed=..."),
        ("many_flows/flows=abc/seed=0", "flows must be int, got 'abc'"),
        ("table4/proto=reno/seed=x", "seed must be int, got 'x'"),
    ])
    def test_bad_key_is_a_usage_error(self, key, named, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr("repro.harness.registry.run_cell",
                            lambda *args, **kwargs: ran.append(args))
        assert main(["profile", key]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert "Traceback" not in captured.err
        assert ran == [] and captured.out == ""

    @pytest.mark.parametrize("key,named", [
        ("ablation/scheme=vegas-basex/path=solo/size_kb=64/seed=0",
         "unknown congestion control 'vegas-basex'"),
        ("ablation/scheme=vegas/path=foo/size_kb=64/seed=0",
         "['internet', 'solo']"),
    ])
    def test_bad_ablation_value_is_an_error(self, key, named, capsys):
        """A well-formed key with a value the runner rejects is an
        error line too, not a traceback."""
        assert main(["profile", key]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert "Traceback" not in captured.err
