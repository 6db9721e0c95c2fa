"""Arena tests: introspection, matrix generation, league math, and the
registry-completeness suite (every roster scheme survives a smoke
scenario solo and 1v1 against Reno without invariant violations)."""

import json
from pathlib import Path

import pytest

from repro.arena import league, matrix
from repro.arena.cells import run_cohort
from repro.arena.scenarios import (
    DEFAULT_SCENARIOS,
    SCENARIOS,
    TIME_VARYING_SCENARIOS,
    available_scenarios,
    get_scenario,
)
from repro.core.registry import arena_roster, available, scheme_info
from repro.errors import ConfigurationError, ReproError
from repro.experiments import defaults as DFLT
from repro.harness.registry import (
    EXPERIMENTS,
    Cell,
    cells_for,
    experiment,
    run_cell,
)

ROSTER = arena_roster()


# ----------------------------------------------------------------------
# Scheme capability introspection
# ----------------------------------------------------------------------

class TestSchemeIntrospection:
    def test_roster_is_the_papers_eight_schemes(self):
        assert ROSTER == ["card", "dual", "newreno", "reno", "reno-sack",
                          "tahoe", "tri-s", "vegas"]

    def test_every_registered_name_has_info(self):
        for name in available():
            info = scheme_info(name)
            assert info.name == name
            assert info.signal in ("loss", "delay", "none")

    def test_variants_point_at_roster_members(self):
        for name in available():
            base = scheme_info(name).variant_of
            if base is not None:
                assert base in ROSTER

    def test_signal_split(self):
        assert scheme_info("reno").signal == "loss"
        assert scheme_info("vegas").signal == "delay"
        assert scheme_info("dual").signal == "delay"
        assert scheme_info("reno-sack").sack

    def test_unknown_scheme_raises(self):
        with pytest.raises(ConfigurationError):
            scheme_info("nope")


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

class TestScenarios:
    def test_selections_are_registered(self):
        names = set(available_scenarios())
        assert set(DEFAULT_SCENARIOS) <= names
        assert "smoke" in names
        assert "smoke" not in DEFAULT_SCENARIOS

    def test_get_scenario_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("wormhole")

    def test_scenarios_are_plausible(self):
        for spec in SCENARIOS.values():
            assert spec.bandwidth > 0 and spec.buffers > 0
            assert spec.transfer_bytes > 0 and spec.horizon > 0
            assert 0.0 <= spec.loss < 1.0

    def test_time_varying_selection(self):
        """The quick grid's smoke matrix is static and its lte slice
        trace-driven."""
        assert set(TIME_VARYING_SCENARIOS) <= set(DEFAULT_SCENARIOS)
        for name in TIME_VARYING_SCENARIOS:
            assert get_scenario(name).time_varying
        (_, static), (_, varying) = DFLT.ARENA_QUICK
        assert not any(get_scenario(name).time_varying for name in static)
        assert set(varying) <= set(TIME_VARYING_SCENARIOS)

    def test_trace_scenario_nominal_bandwidth_is_cycle_mean(self):
        # The static `bandwidth` figure on a trace scenario is a label;
        # keep it honest: within 15% of the built trace's true mean for
        # deterministic kinds, within the rate envelope for stochastic
        # ones (a seeded random walk drifts off its anchor).
        from repro.net.traces import STOCHASTIC_KINDS
        from repro.sim.rng import RngRegistry

        for name in TIME_VARYING_SCENARIOS:
            spec = get_scenario(name)
            if spec.trace is None:
                continue
            trace = spec.trace.build(RngRegistry(0).stream("link-trace"))
            if spec.trace.kind in STOCHASTIC_KINDS:
                assert trace.min_rate <= spec.bandwidth <= 2 * trace.max_rate
            else:
                assert trace.mean_rate == pytest.approx(spec.bandwidth,
                                                        rel=0.15)


# ----------------------------------------------------------------------
# Matrix generation
# ----------------------------------------------------------------------

def _by_mode(cells):
    by_mode = {}
    for cell in cells:
        by_mode.setdefault(cell.as_dict()["mode"], []).append(cell)
    return by_mode


class TestMatrix:
    def test_quick_matrix_shape(self):
        """The quick grid is the smoke matrix (3 schemes x classic,
        shallow) plus the lte slice (vegas, reno), every mode, seed 0."""
        cells = cells_for("arena", quick=True)
        assert len(cells) == 23
        by_mode = _by_mode(cells)
        # (3 solo + C(3,2) duels + 3 mix) x 2 scenarios; 2 + 1 + 2 on lte.
        assert {mode: len(group) for mode, group in by_mode.items()} == \
            {"solo": 8, "duel": 7, "mix": 8}
        assert {cell.as_dict()["seed"] for cell in cells} == {0}
        lte = {cell.as_dict().get("scheme") for cell in by_mode["solo"]
               if cell.as_dict()["scenario"] == "lte"}
        assert lte == {"vegas", "reno"}

    def test_grid_names_are_registered(self):
        """The arena grids are declared by plain name so enumerating
        them loads no simulator; each name must still be a roster
        scheme and a registered scenario."""
        assert DFLT.ARENA_SCHEMES == tuple(ROSTER)
        assert DFLT.ARENA_SCENARIOS == DEFAULT_SCENARIOS
        for schemes, scenarios in DFLT.ARENA_QUICK + DFLT.ARENA_FULL:
            assert set(schemes) <= set(ROSTER), schemes
            assert set(scenarios) <= set(SCENARIOS), scenarios

    def test_full_matrix_round_robin(self):
        cells = matrix.generate_matrix(seeds=1, scenarios=["classic"])
        duels = [c.as_dict() for c in _by_mode(cells)["duel"]]
        n = len(ROSTER)
        assert len(duels) == n * (n - 1) // 2
        for params in duels:
            assert params["a"] < params["b"]  # name-sorted, unordered
        full = cells_for("arena")
        assert len(full) == 3 * len(DEFAULT_SCENARIOS) * (2 * n + len(duels))

    def test_duel_pair_order_independent(self):
        one = matrix.generate_matrix(schemes=["vegas", "reno"],
                                     scenarios=["smoke"], seeds=1,
                                     modes=("duel",))
        two = matrix.generate_matrix(schemes=["reno", "vegas"],
                                     scenarios=["smoke"], seeds=1,
                                     modes=("duel",))
        assert [c.key for c in one] == [c.key for c in two]

    def test_selection_shapes(self):
        listed = matrix.generate_matrix(schemes=["vegas", "reno"],
                                        scenarios=["smoke"], seeds=1)
        paired = matrix.generate_matrix(schemes=("vegas", "reno"),
                                        scenarios=("smoke",), seeds=1)
        assert [c.key for c in listed] == [c.key for c in paired]
        everyone = matrix.generate_matrix(scenarios=["smoke"], seeds=1,
                                          modes=("solo",))
        assert len(everyone) == len(ROSTER)
        default = matrix.generate_matrix(schemes=["vegas"], seeds=1,
                                         modes=("solo",))
        assert [c.as_dict()["scenario"] for c in default] == \
            list(DEFAULT_SCENARIOS)

    def test_family_registration(self):
        """Every arena cell, whatever its mode, is a cell of the one
        ``arena`` record, which is part of the run-all sweep."""
        cells = matrix.generate_matrix(scenarios=["smoke"], seeds=1)
        assert {cell.experiment for cell in cells} == {"arena"}
        assert set(_by_mode(cells)) == set(matrix.MODES)
        assert experiment("arena").grid is not None
        assert "arena" in EXPERIMENTS

    def test_bad_selections(self):
        with pytest.raises((ConfigurationError, ReproError)):
            matrix.generate_matrix(schemes=["nope"], scenarios=["smoke"])
        with pytest.raises((ConfigurationError, ReproError)):
            matrix.generate_matrix(schemes=["vegas"], scenarios=["nope"])
        with pytest.raises((ConfigurationError, ReproError)):
            matrix.generate_matrix(schemes=["vegas"], scenarios=["smoke"],
                                   seeds=0)
        with pytest.raises((ConfigurationError, ReproError)):
            matrix.generate_matrix(schemes=["vegas"], scenarios=["smoke"],
                                   modes=("melee",))
        with pytest.raises((ConfigurationError, ReproError)):
            matrix.generate_matrix(schemes=["vegas", "vegas"],
                                   scenarios=["smoke"])
        with pytest.raises((ConfigurationError, ReproError)):
            matrix.generate_matrix(schemes=["vegas"], scenarios=["smoke"],
                                   n_cross=0)
        with pytest.raises(ReproError, match="unknown arena mode"):
            run_cell(Cell.make("arena", mode="melee", scenario="smoke",
                               seed=0))


# ----------------------------------------------------------------------
# League aggregation math
# ----------------------------------------------------------------------

def _solo(scheme, scenario, throughput, rtt=100.0, retx=1.0, seed=0):
    return {"experiment": "arena", "key": f"s/{scheme}/{seed}",
            "params": {"mode": "solo", "scheme": scheme,
                       "scenario": scenario, "seed": seed},
            "metrics": {"throughput_kbps": throughput, "rtt_mean_ms": rtt,
                        "retransmit_kb": retx, "coarse_timeouts": 0.0,
                        "completed": 1.0}}


def _duel(a, b, a_rate, b_rate, scenario="classic", fairness=0.9, seed=0):
    return {"experiment": "arena", "key": f"d/{a}/{b}/{seed}",
            "params": {"mode": "duel", "a": a, "b": b,
                       "scenario": scenario, "seed": seed},
            "metrics": {"a_throughput_kbps": a_rate,
                        "b_throughput_kbps": b_rate,
                        "a_completed": 1.0, "b_completed": 1.0,
                        "fairness_index": fairness}}


class TestLeagueMath:
    def test_duel_outcome_margins(self):
        assert league.duel_outcome(100.0, 50.0) == 1
        assert league.duel_outcome(50.0, 100.0) == -1
        assert league.duel_outcome(100.0, 96.0) == 0   # within 5%
        assert league.duel_outcome(100.0, 94.0) == 1   # outside 5%

    def test_duel_outcome_no_contest(self):
        # Both goodputs <= 0 (outage, nobody moved data): a no-contest,
        # not a draw — awarding draw points here inflated standings.
        assert league.duel_outcome(0.0, 0.0) is None
        assert league.duel_outcome(-1.0, 0.0) is None
        # One live flow is still a win, however small.
        assert league.duel_outcome(0.5, 0.0) == 1
        assert league.duel_outcome(0.0, 0.5) == -1

    def test_no_contest_awards_no_points(self):
        cells = [_duel("a", "b", 0.0, 0.0),      # no-contest
                 _duel("a", "b", 100, 99)]       # genuine draw
        table = {s.scheme: s for s in league.compute_standings(cells)}
        for scheme in ("a", "b"):
            assert table[scheme].points == 1      # the draw only
            assert table[scheme].draws == 1
            assert table[scheme].no_contests == 1
            assert table[scheme].duels == 1       # NC not a contested duel
            # The dead duel's zero goodput must not drag the mean down.
            assert table[scheme].duel_throughput in ([100], [99])
        text = league.render_league(cells)
        assert "NC" in text

    def test_points_and_record(self):
        cells = [_duel("a", "b", 100, 50),      # a beats b
                 _duel("a", "c", 100, 99),      # draw
                 _duel("b", "c", 40, 80)]       # c beats b
        standings = league.compute_standings(cells)
        table = {s.scheme: s for s in standings}
        assert (table["a"].wins, table["a"].draws, table["a"].losses) \
            == (1, 1, 0)
        assert table["a"].points == 3
        assert table["c"].points == 3
        assert table["b"].points == 0
        # a and c tie on points; a's mean duel goodput (100) beats
        # c's (~89.5), so a ranks first.
        assert [s.scheme for s in standings] == ["a", "c", "b"]

    def test_solo_and_fairness_means(self):
        cells = [_solo("x", "classic", 80.0, rtt=120.0, retx=2.0, seed=0),
                 _solo("x", "classic", 120.0, rtt=180.0, retx=4.0, seed=1),
                 _duel("x", "y", 10, 10, fairness=0.8),
                 _duel("x", "y", 10, 10, fairness=1.0, seed=1)]
        entry = {s.scheme: s for s in league.compute_standings(cells)}["x"]
        assert sum(entry.solo_throughput) / 2 == pytest.approx(100.0)
        assert sum(entry.solo_rtt_ms) / 2 == pytest.approx(150.0)
        assert sum(entry.duel_fairness) / 2 == pytest.approx(0.9)

    def test_scenario_filter(self):
        cells = [_duel("a", "b", 100, 50, scenario="classic"),
                 _duel("a", "b", 50, 100, scenario="shallow")]
        overall = {s.scheme: s for s in league.compute_standings(cells)}
        assert overall["a"].points == overall["b"].points == 2
        classic = {s.scheme: s
                   for s in league.compute_standings(cells,
                                                     scenario="classic")}
        assert classic["a"].points == 2 and classic["b"].points == 0

    def test_non_arena_cells_ignored(self):
        cells = [_duel("a", "b", 100, 50),
                 {"experiment": "table2", "key": "t", "params": {},
                  "metrics": {}}]
        assert {s.scheme for s in league.compute_standings(cells)} \
            == {"a", "b"}

    def test_render_league_markdown(self):
        cells = [_solo("a", "classic", 80.0), _duel("a", "b", 100, 50)]
        text = league.render_league(cells)
        assert "## Overall standings" in text
        assert "## Scenario: classic" in text
        assert "| a" in text and "| b" in text

    def test_render_league_empty(self):
        assert "no arena cells" in league.render_league([])


# ----------------------------------------------------------------------
# Registry completeness: every roster scheme survives the smoke
# scenario solo and 1v1 against Reno, with the invariant checker live.
# ----------------------------------------------------------------------

class TestRegistryCompleteness:
    @pytest.mark.parametrize("scheme", ROSTER)
    def test_solo_smoke(self, scheme):
        metrics = run_cell(Cell.make("arena", mode="solo", scheme=scheme,
                                     scenario="smoke", seed=0),
                           checks="collect")
        assert metrics["completed"] == 1.0
        assert metrics["invariant_violations"] == 0.0
        assert metrics["throughput_kbps"] > 0

    @pytest.mark.parametrize("scheme", ROSTER)
    def test_duel_against_reno(self, scheme):
        a, b = sorted((scheme, "reno"))
        metrics = run_cell(Cell.make("arena", mode="duel", a=a, b=b,
                                     scenario="smoke", seed=0),
                           checks="collect")
        assert metrics["a_completed"] == 1.0
        assert metrics["b_completed"] == 1.0
        assert metrics["invariant_violations"] == 0.0
        assert 0.0 < metrics["fairness_index"] <= 1.0


# ----------------------------------------------------------------------
# Time-varying completeness: every roster scheme also survives each
# trace-driven scenario, solo and 1v1 against Reno, checker live.
# ----------------------------------------------------------------------

class TestTimeVaryingCompleteness:
    @pytest.mark.parametrize("scenario", TIME_VARYING_SCENARIOS)
    @pytest.mark.parametrize("scheme", ROSTER)
    def test_solo_time_varying(self, scheme, scenario):
        metrics = run_cell(Cell.make("arena", mode="solo", scheme=scheme,
                                     scenario=scenario, seed=0),
                           checks="collect")
        assert metrics["completed"] == 1.0
        assert metrics["invariant_violations"] == 0.0
        assert metrics["throughput_kbps"] > 0

    @pytest.mark.parametrize("scenario", TIME_VARYING_SCENARIOS)
    @pytest.mark.parametrize("scheme", ROSTER)
    def test_duel_against_reno_time_varying(self, scheme, scenario):
        a, b = sorted((scheme, "reno"))
        metrics = run_cell(Cell.make("arena", mode="duel", a=a, b=b,
                                     scenario=scenario, seed=0),
                           checks="collect")
        assert metrics["a_completed"] == 1.0
        assert metrics["b_completed"] == 1.0
        assert metrics["invariant_violations"] == 0.0
        assert 0.0 < metrics["fairness_index"] <= 1.0

    def test_time_varying_cohort_is_deterministic(self):
        one = run_cohort(["vegas", "reno"], "wifi", seed=5)
        two = run_cohort(["vegas", "reno"], "wifi", seed=5)
        assert [f.throughput_kbps for f in one] \
            == [f.throughput_kbps for f in two]
        assert [f.rtt_mean_ms for f in one] == [f.rtt_mean_ms for f in two]


# ----------------------------------------------------------------------
# Cohort determinism
# ----------------------------------------------------------------------

class TestCohort:
    def test_same_seed_is_bit_identical(self):
        one = run_cohort(["vegas", "reno"], "smoke", seed=3)
        two = run_cohort(["vegas", "reno"], "smoke", seed=3)
        assert [f.throughput_kbps for f in one] \
            == [f.throughput_kbps for f in two]
        assert [f.rtt_mean_ms for f in one] == [f.rtt_mean_ms for f in two]

    def test_flow_order_matches_schemes(self):
        flows = run_cohort(["vegas", "reno"], "smoke", seed=0)
        assert [f.scheme for f in flows] == ["vegas", "reno"]

    def test_mix_rejects_empty_cohort(self):
        from repro.arena.cells import arena_mix

        with pytest.raises(ValueError):
            arena_mix("vegas", "reno", 0, "smoke", 0)

    @pytest.mark.parametrize("point,band", [
        ((200, 10), (46.2, 48.5)), ((255, 26), (37.0, 39.7)),
        ((500, 40), (13.6, 18.6)), ((200, 50), (31.4, 34.5))])
    def test_crossover_band_is_the_closed_form(self, point, band):
        """B*(a) = S + w_a − BDP, with w_a the root of
        w·(S + w − BDP) = a·(S + w) for a = α, β; the buffer count
        does not enter it."""
        from repro.arena.cells import crossover_band
        from repro.arena.scenarios import custom_scenario

        shallow, deep = (
            crossover_band(custom_scenario(*point, buffers, 600, 34.0))
            for buffers in (5, 60))
        assert shallow == deep
        assert [round(bstar, 1) for bstar in shallow] == list(band)
        # KB/s x seconds of base RTT (5 ms access, 0.1 ms egress) is
        # segments of 1 KB; the socket buffer is 50 of them.
        bw_kbps, delay_ms = point
        bdp = bw_kbps * 2.0 * (delay_ms + 5.0 + 0.1) / 1000.0
        for bstar, a in zip(shallow, (2.0, 4.0)):
            window = bstar - 50.0 + bdp
            assert window * bstar == pytest.approx(a * (50.0 + window))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestArenaCLI:
    """The arena is ``run-all --experiments arena``: the same
    selection, cache, gate and renderer as every paper artifact."""

    SOLO_CLASSIC = "arena/mode=solo/scenario=classic"

    def test_dry_run_lists_cells(self, monkeypatch):
        from repro.cli import main
        from repro.harness import runner

        swept = []

        def record(cells, **kwargs):
            swept.extend(cell.key for cell in cells)
            return runner.RunReport(interrupted=True)

        monkeypatch.setattr(runner, "run_cells", record)
        assert main(["run-all", "--quick", "--experiments", "arena"]) == 130
        assert swept == [cell.key for cell in cells_for("arena", quick=True)]
        assert len(swept) == 23 and all(k.startswith("arena/") for k in swept)

    def test_bad_scheme_exits_2(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--quick", "--experiments", "arena",
                     "--only", f"{self.SOLO_CLASSIC}/scheme=nope"]) == 2
        assert "matches no cell" in capsys.readouterr().err
        assert main(["run-all", "--experiments", "arena,nope"]) == 2
        assert "unknown experiment 'nope'" in capsys.readouterr().err

    def test_quick_smoke_run(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "arena.json"
        code = main(["run-all", "--quick", "--experiments", "arena",
                     "--only", f"{self.SOLO_CLASSIC}/scheme=vegas,"
                     f"{self.SOLO_CLASSIC}/scheme=reno,"
                     "arena/a=reno/b=vegas/mode=duel/scenario=classic",
                     "--jobs", "1", "--no-timeout",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--json", str(artifact)])
        assert code == 0
        doc = json.loads(artifact.read_text())
        assert doc["mode"] == "quick"
        assert len(doc["cells"]) == 3  # 2 solo + 1 duel
        text = capsys.readouterr().out
        assert "- cells: 3 (1 duel, 2 solo)" in text
        assert "## Overall standings" in text
        assert "vegas" in text and "reno" in text

    def test_check_subcommand_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "arena.json"
        args = ["run-all", "--quick", "--experiments", "arena",
                "--only", f"{self.SOLO_CLASSIC}/scheme=vegas",
                "--jobs", "1", "--no-timeout",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(artifact)]
        assert main(args) == 0
        # The artifact gates cleanly against itself via `repro check`,
        # and its cell is the committed baseline's to the last digit.
        assert main(["check", str(artifact), str(artifact),
                     "--tolerance", "0.0"]) == 0
        (cell,) = json.loads(artifact.read_text())["cells"]
        baseline = Path(__file__).resolve().parents[1] / "baselines"
        pinned = {c["key"]: c["metrics"] for c in json.loads(
            (baseline / "expected.json").read_text())["cells"]}
        assert cell["metrics"] == pinned[cell["key"]]
