"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_solo_defaults(self):
        args = build_parser().parse_args(["solo"])
        assert args.cc == "vegas"
        assert args.size_kb == 1024
        assert args.buffers == 10


def run_all(*argv):
    """``run-all --no-cache`` over *argv*; the exit code."""
    return main(["run-all", "--no-cache", *argv])


@pytest.mark.usefixtures("run_all_shares_cells")
class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vegas" in out and "reno" in out and "tri-s" in out

    def test_solo_prints_metrics(self, capsys):
        assert main(["solo", "--cc", "reno", "--size-kb", "64"]) == 0
        out = capsys.readouterr().out
        assert "KB/s" in out and "reno" in out

    def test_solo_vegas_variant(self, capsys):
        assert main(["solo", "--cc", "vegas-1,3", "--size-kb", "64",
                     "--buffers", "15"]) == 0
        assert "vegas-1,3" in capsys.readouterr().out

    def test_figure6(self, capsys):
        assert run_all("--experiments", "figure6") == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "send marks" in out

    def test_figure7(self, capsys):
        assert run_all("--experiments", "figure7") == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "CAM decisions" in out

    def test_table1_quick(self, capsys):
        assert run_all("--experiments", "table1", "--quick") == 0
        out = capsys.readouterr().out
        assert "reno/vegas" in out and "(paper)" in out

    @pytest.mark.slow
    def test_table2_small(self, capsys):
        assert run_all("--experiments", "table2", "--seeds", "1") == 0
        out = capsys.readouterr().out
        assert "vegas-1,3" in out and "Coarse timeouts" in out

    def test_sendbuf(self, capsys):
        assert run_all("--experiments", "sendbuf") == 0
        out = capsys.readouterr().out
        assert "sndbuf" in out and "50KB" in out
