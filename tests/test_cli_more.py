"""Additional CLI command coverage (fast variants of the slow paths)."""

import os
import re

import pytest

from repro.cli import main


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
                              "--json", dist]) == 0
        doc = load_document(dist)
        assert doc["run"]["backend"] == "dist"
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
# Verbs that are also runnable modules declare their options once.
# ----------------------------------------------------------------------

def _dual_entry_verbs():
    from repro.harness import check
    from repro.harness.dist import worker
    from repro.obs import report
    from repro.perf import bench, profile

    return [(["check"], check), (["report"], report), (["bench"], bench),
            (["profile"], profile), (["dist", "worker"], worker)]


@pytest.mark.parametrize("verb,module", _dual_entry_verbs(),
                         ids=[" ".join(v) for v, _ in _dual_entry_verbs()])
def test_module_and_subcommand_take_the_same_options(verb, module, capsys):
    def option_help(entry, argv):
        """The argument sections of ``-h``: every option string + help."""
        with pytest.raises(SystemExit) as exit_info:
            entry(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        heads = ("\npositional arguments:", "\noptions:",
                 "\noptional arguments:")
        return out[min(out.index(h) for h in heads if h in out):]

    via_cli = option_help(main, verb + ["-h"])
    assert re.search(r"^  --[a-z]", via_cli, re.M)
    assert via_cli == option_help(module.main, ["-h"])
