"""Additional CLI command coverage (fast variants of the slow paths)."""

import os

import pytest

from repro.cli import main


@pytest.mark.usefixtures("verbs_share_cells")
class TestMoreCommands:
    def test_table4_single_seed(self, capsys):
        assert main(["table4", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "UA->NIH" in out and "vegas-2,4" in out

    def test_table5_single_seed(self, capsys):
        assert main(["table5", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "128 KB transfers" in out
        assert "1024 KB transfers" in out

    @pytest.mark.slow
    def test_twoway_single_seed(self, capsys):
        assert main(["twoway", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "two-way" in out

    def test_figure9(self, capsys):
        assert main(["figure9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "CAM" in out

    @pytest.mark.slow
    def test_table3_single_seed(self, capsys):
        assert main(["table3", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "background CC" in out


# ----------------------------------------------------------------------
# The nine tabular verbs are one function over the registry's cells and
# the harness's renderer: one case list, nine verbs, each at its
# cheapest arguments, with the grid those arguments select.
# ----------------------------------------------------------------------

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir,
                        "baselines", "expected.json")


def _verb(*argv, slow=False, **grid):
    return pytest.param(list(argv), grid, id=" ".join(argv),
                        marks=[pytest.mark.slow] if slow else [])


PAPER_VERBS = [
    _verb("table1", "--quick", quick=True),
    _verb("table2", "--seeds", "1", seeds=range(1), slow=True),
    _verb("table3", "--seeds", "1", seeds=range(1), slow=True),
    _verb("table4", "--seeds", "2", seeds=range(2)),
    _verb("table5", "--seeds", "2", seeds=range(2)),
    _verb("sendbuf"),
    _verb("fairness"),
    _verb("twoway", "--seeds", "1", seeds=range(1), slow=True),
    _verb("telnet", "--seeds", "1", seeds=range(1)),
]


@pytest.mark.usefixtures("verbs_share_cells")
class TestPaperVerbs:
    @pytest.mark.parametrize("argv,grid", PAPER_VERBS)
    def test_verb_prints_its_registry_cells(self, argv, grid, capsys,
                                            run_shared):
        """stdout is ``aggregate.summarize`` over the grid the arguments
        select, and every cell the quick baseline pins has its numbers."""
        from repro.harness import build_document, cells_for, load_document
        from repro.harness.aggregate import summarize

        assert main(argv) == 0
        out = capsys.readouterr().out
        report = run_shared(cells_for(argv[0], **grid))
        doc = build_document(report, mode="test", src_hash="")
        assert out == summarize(doc["cells"]) + "\n"

        pinned = {cell["key"]: cell["metrics"]
                  for cell in load_document(BASELINE)["cells"]}
        gated = [cell for cell in doc["cells"] if cell["key"] in pinned]
        assert gated, "no cell of this verb is in the quick baseline"
        for cell in gated:
            assert cell["metrics"] == pinned[cell["key"]], cell["key"]

    def test_seed_is_the_base_of_the_seed_axis(self, capsys):
        """Six verbs parsed ``--seed`` and ignored it: ``--seed 1
        --seeds 1`` now prints the baseline's own ``seed=1`` cells."""
        from repro.harness import load_document
        from repro.harness.aggregate import summarize

        assert main(["table4", "--seeds", "1", "--seed", "1"]) == 0
        shifted = capsys.readouterr().out
        pinned = [cell for cell in load_document(BASELINE)["cells"]
                  if cell["experiment"] == "table4"
                  and cell["params"]["seed"] == 1]
        assert len(pinned) == 3
        assert shifted == summarize(pinned) + "\n"
        assert main(["table4", "--seeds", "1"]) == 0
        assert capsys.readouterr().out != shifted

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("verb", ["table3", "table4"])
    def test_seeds_below_one_is_a_usage_error(self, verb, count, capsys,
                                              no_cells_run):
        assert main([verb, "--seeds", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --seeds must be >= 1, got {count}" in captured.err

    def test_interrupted_verb_prints_no_table(self, monkeypatch, capsys):
        """``run_cells`` drains a Ctrl-C into the report: the cells that
        did run must not be printed as if they were the table."""
        from repro.harness import runner

        monkeypatch.setattr(
            runner, "run_cells",
            lambda cells, **kwargs: runner.RunReport(interrupted=True))
        assert main(["table4", "--seeds", "1"]) == 130
        assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# The four sweep verbs share one option table and one validator
# (repro.harness.options): one case list, four verbs.
# ----------------------------------------------------------------------

SWEEP_VERBS = {
    "run-all": ["run-all", "--quick"],
    "dist run": ["dist", "run", "--quick"],
    "arena": ["arena", "--quick"],
    "search": ["search", "--objective", "vegas_regret", "--quick"],
}

BAD_VALUES = [
    (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["--retries", "-1"], "--retries must be >= 0, got -1"),
    (["--timeout", "0"], "--timeout must be positive, got 0.0"),
    (["--timeout", "nan"], "--timeout must be finite, got nan"),
    (["--watchdog", "-1"], "--watchdog must be positive, got -1.0"),
    (["--backend", "dist", "--workers", "-1"],
     "--workers must be >= 0, got -1"),
    (["--json", "{missing}/x.json"], "--json: cannot write"),
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
        flags = [f.format(missing=tmp_path / "missing") for f in flags]
        assert main(SWEEP_VERBS[verb] + flags) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--result"])
    def test_search_checks_its_own_outputs_first(self, flag, tmp_path,
                                                 capsys, no_cells_run):
        path = str(tmp_path / "missing" / "x")
        assert main(SWEEP_VERBS["search"] + [flag, path]) == 2
        assert f"error: {flag}: cannot write" in capsys.readouterr().err

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
        from repro.harness.artifacts import cells_fingerprint, load_document

        matrix = ["arena", "--quick", "--schemes", "vegas,reno",
                  "--scenarios", "classic", "--seeds", "1", "--modes",
                  "solo", "--no-cache"]
        local, dist = str(tmp_path / "l.json"), str(tmp_path / "d.json")
        assert main(matrix + ["--jobs", "2", "--json", local]) == 0
        assert main(matrix + ["--backend", "dist", "--workers", "2",
                              "--jobs", "1", "--json", dist]) == 0
        doc = load_document(dist)
        assert doc["run"]["backend"] == "dist"
        # The workers the master started, not the degrade fallback.
        assert doc["run"]["jobs"] == 2
        assert {c["worker"] for c in doc["cells"]} != {None}
        assert cells_fingerprint(doc) == \
            cells_fingerprint(load_document(local))

    def test_interrupted_arena_exits_130(self, monkeypatch, capsys):
        from repro.harness import runner

        monkeypatch.setattr(
            runner, "run_cells",
            lambda cells, **kwargs: runner.RunReport(interrupted=True))
        assert main(["arena", "--quick", "--no-cache"]) == 130
        assert "INTERRUPTED: sweep drained with 0/" in \
            capsys.readouterr().err


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
