"""Tests for the black-box scenario search (src/repro/search/).

Covers the frozen search space, the seeded ask/tell strategies, the
driver loop (seed determinism, memoization, disk-cache reuse), the
repro-search/v1 artifact, the leaderboard renderer, the registry's
`search` family, and the CLI entry point.
"""

import json
import random

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.harness.artifacts import write_document
from repro.harness.cache import ResultCache
from repro.harness.dist.chaos import CHAOS_EXPERIMENT
from repro.harness.options import SweepOptions
from repro.harness.registry import Cell
from repro.search.cells import cohort_horizon, parse_schemes
from repro.search.driver import (
    SEARCH_SCHEMA,
    build_search_document,
    load_search_document,
    render_leaderboard,
    run_search,
)
from repro.search.objectives import OBJECTIVES, Objective, get_objective
from repro.search.space import Dimension, SearchSpace
from repro.search.strategies import STRATEGIES, make_strategy


# ----------------------------------------------------------------------
# A cheap stub objective: cells are instant dist_chaos "ok" cells, and
# the fitness is a pure function of the point, so driver-level tests
# never pay for the simulator.
# ----------------------------------------------------------------------

STUB_SPACE = SearchSpace.of(
    Dimension.uniform("x", 0.0, 10.0),
    Dimension.log_uniform("rate", 1.0, 100.0),
    Dimension.integer("seed", 0, 3),
    Dimension.choice("flavor", "a", "b"),
)


#: In-process, one cell at a time: what every driver-level test runs under.
SERIAL = SweepOptions(jobs=1)


def _stub_cells(point):
    return [Cell.make(CHAOS_EXPERIMENT, mode="ok", seed=point["seed"])]


def stub_objective(direction="max", scorer=None):
    def default_scorer(point, metrics):
        return -abs(point["x"] - 7.0)

    return Objective(name="stub", direction=direction,
                     description="distance from x=7", space=STUB_SPACE,
                     builder=_stub_cells,
                     scorer=scorer or default_scorer)


def trace(outcome):
    """The replayable identity of a search run."""
    return [(tuple(sorted(ev.point.items())), ev.cells, ev.fitness)
            for ev in outcome.evaluations]


# ----------------------------------------------------------------------
# Space
# ----------------------------------------------------------------------

class TestDimension:
    def test_factories_validate_bounds(self):
        with pytest.raises(ConfigurationError, match="low < high"):
            Dimension.uniform("x", 5.0, 5.0)
        with pytest.raises(ConfigurationError, match="positive"):
            Dimension.log_uniform("x", 0.0, 10.0)
        with pytest.raises(ConfigurationError, match="low < high"):
            Dimension.integer("x", 9, 3)
        with pytest.raises(ConfigurationError, match="at least one"):
            Dimension.choice("x")

    def test_samples_stay_in_bounds_and_are_quantized(self):
        rng = random.Random(7)
        uni = Dimension.uniform("u", 0.5, 123.456)
        log = Dimension.log_uniform("l", 2.0, 500.0)
        num = Dimension.integer("i", 3, 9)
        cat = Dimension.choice("c", "reno", "vegas")
        for _ in range(200):
            u, lo, i, c = (uni.sample(rng), log.sample(rng),
                           num.sample(rng), cat.sample(rng))
            assert 0.5 <= u <= 123.456
            assert 2.0 <= lo <= 500.0
            assert 3 <= i <= 9 and isinstance(i, int)
            assert c in ("reno", "vegas")
            # 4-sig-digit quantization: %g round-trips bit-identically,
            # which is what keeps cell keys stable.
            assert float(format(u, "g")) == u
            assert float(format(lo, "g")) == lo

    def test_mutate_and_blend_stay_in_bounds(self):
        rng = random.Random(11)
        for dim in STUB_SPACE.dimensions:
            value = dim.sample(rng)
            for _ in range(100):
                value = dim.mutate(value, rng)
                assert dim.clip(value) == value
            blended = dim.blend(dim.sample(rng), dim.sample(rng), rng)
            assert dim.clip(blended) == blended

    def test_refine_is_deterministic_and_deduped(self):
        uni = Dimension.uniform("u", 0.0, 10.0)
        values = uni.refine(5.0, span=1.0, levels=3)
        assert values == uni.refine(5.0, span=1.0, levels=3)
        assert len(values) == len(set(values))
        assert all(0.0 <= v <= 10.0 for v in values)
        cat = Dimension.choice("c", "a", "b", "c")
        assert cat.refine("b", span=0.25, levels=5) == ["a", "b", "c"]

    def test_clip_projects_back_inside(self):
        assert Dimension.uniform("u", 0.0, 1.0).clip(42.0) == 1.0
        assert Dimension.integer("i", 2, 8).clip(-3) == 2
        assert Dimension.choice("c", "a", "b").clip("zzz") == "a"


class TestSearchSpace:
    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ConfigurationError, match=">= 1 dimension"):
            SearchSpace.of()
        with pytest.raises(ConfigurationError, match="duplicate"):
            SearchSpace.of(Dimension.integer("x", 0, 1),
                           Dimension.uniform("x", 0.0, 1.0))

    def test_sample_covers_every_dimension(self):
        point = STUB_SPACE.sample(random.Random(0))
        assert tuple(point) == STUB_SPACE.names

    def test_unknown_dimension_lookup_raises(self):
        with pytest.raises(ConfigurationError, match="no dimension"):
            STUB_SPACE.dimension("nope")

    def test_space_is_hashable(self):
        assert hash(STUB_SPACE) == hash(
            SearchSpace.of(*STUB_SPACE.dimensions))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

def _drive(strategy_name, seed, rounds=6):
    """Ask/tell a strategy against a synthetic deterministic fitness."""
    strat = make_strategy(strategy_name, STUB_SPACE, seed)
    asked = []
    for _ in range(rounds):
        batch = strat.ask()
        asked.extend(tuple(sorted(p.items())) for p in batch)
        strat.tell([(p, -abs(p["x"] - 7.0)) for p in batch])
    return asked


class TestStrategies:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_same_seed_replays_identical_proposals(self, name):
        assert _drive(name, seed=5) == _drive(name, seed=5)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_different_seed_changes_proposals(self, name):
        assert _drive(name, seed=5) != _drive(name, seed=6)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ConfigurationError, match="unknown search"):
            make_strategy("anneal", STUB_SPACE, 0)

    def test_genetic_pool_truncates_to_population(self):
        strat = make_strategy("genetic", STUB_SPACE, 3, population=4)
        for _ in range(5):
            batch = strat.ask()
            strat.tell([(p, p["x"]) for p in batch])
        assert len(strat.pool) == 4
        # Failed evaluations enter at -inf and are bred away from.
        strat.tell([(STUB_SPACE.sample(strat.rng), None)])
        assert all(f != float("-inf") for _, f in strat.pool)

    def test_grid_recenters_on_best(self):
        strat = make_strategy("grid", STUB_SPACE, 1)
        batch = strat.ask()
        best = max(batch, key=lambda p: -abs(p["x"] - 7.0))
        strat.tell([(p, -abs(p["x"] - 7.0)) for p in batch])
        assert strat.center == best


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

class TestRunSearch:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_seed_determinism_per_strategy(self, name):
        """Same space+seed+budget ⇒ identical evaluation sequence."""
        first = run_search(stub_objective(), strategy=name, budget=12,
                           seed=2, opts=SERIAL)
        second = run_search(stub_objective(), strategy=name, budget=12,
                            seed=2, opts=SERIAL)
        assert trace(first) == trace(second)
        assert first.best.point == second.best.point
        assert len(first.evaluations) == 12

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_different_seeds_explore_differently(self, name):
        a = run_search(stub_objective(), strategy=name, budget=8,
                       seed=0, opts=SERIAL)
        b = run_search(stub_objective(), strategy=name, budget=8,
                       seed=1, opts=SERIAL)
        assert trace(a) != trace(b)

    def test_cells_are_memoized_across_rounds(self):
        # The stub space has only 4 distinct cells (seed 0..3); a 16-
        # evaluation search must not run the harness 16 times.
        outcome = run_search(stub_objective(), strategy="random",
                             budget=16, seed=0, opts=SERIAL)
        unique = {k for ev in outcome.evaluations for k in ev.cells}
        assert len(outcome.evaluations) == 16
        assert len(unique) <= 4
        assert len(outcome.report.results) == len(unique)

    def test_min_direction_ranks_smallest_first(self):
        outcome = run_search(stub_objective(direction="min"),
                             strategy="random", budget=10, seed=4,
                             opts=SERIAL)
        fitnesses = [ev.fitness for ev in outcome.ranked()]
        assert fitnesses == sorted(fitnesses)

    def test_scorer_none_marks_evaluation_failed(self):
        def scorer(point, metrics):
            return None if point["flavor"] == "a" else point["x"]

        outcome = run_search(stub_objective(scorer=scorer),
                             strategy="random", budget=12, seed=0,
                             opts=SERIAL)
        failed = [ev for ev in outcome.evaluations if ev.failed]
        scored = [ev for ev in outcome.evaluations if not ev.failed]
        assert failed and scored          # seed 0 draws both flavors
        assert all(ev.point["flavor"] == "b" for ev in scored)
        assert outcome.best.point["flavor"] == "b"

    def test_ranked_dedupes_repeated_points(self):
        outcome = run_search(stub_objective(), strategy="genetic",
                             budget=20, seed=1, opts=SERIAL)
        frozen = [tuple(sorted(ev.point.items()))
                  for ev in outcome.ranked()]
        assert len(frozen) == len(set(frozen))

    def test_budget_must_be_positive(self):
        with pytest.raises(ReproError, match="budget"):
            run_search(stub_objective(), budget=0)

    def test_disk_cache_reuse_reevaluates_zero_cells(self, tmp_path):
        """A repeated search against a warm cache re-runs nothing."""
        objective = get_objective("vegas_regret", quick=True)

        def go():
            cache = ResultCache(str(tmp_path / "cache"), "searchhash")
            return run_search(objective, strategy="random", budget=4,
                              seed=3,
                              opts=SweepOptions(jobs=1, cache=cache))

        first = go()
        second = go()
        unique = {k for ev in first.evaluations for k in ev.cells}
        assert first.report.cache_hits == 0
        assert first.report.cache_misses == len(unique)
        assert second.report.cache_misses == 0
        assert second.report.cache_hits == len(unique)
        assert trace(first) == trace(second)


# ----------------------------------------------------------------------
# Built-in objectives
# ----------------------------------------------------------------------

class TestObjectives:
    def test_registry_lists_all_three(self):
        assert OBJECTIVES == ("fairness_cliff", "table_calibrate",
                              "vegas_regret")

    def test_unknown_objective_raises(self):
        with pytest.raises(ConfigurationError, match="unknown search"):
            get_objective("goodput_cliff")

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_points_map_to_registered_search_cohort_cells(self, name):
        objective = get_objective(name, quick=True)
        point = objective.space.sample(random.Random(0))
        cells = objective.cells_for(point)
        assert cells
        for cell in cells:
            assert cell.experiment == "search_cohort"
            # The point's values survived the cell-key round trip.
            assert cell.key == Cell.make(cell.experiment,
                                         **dict(cell.params)).key

    def test_table_calibrate_runs_a_reno_and_a_vegas_cohort(self):
        objective = get_objective("table_calibrate", quick=True)
        point = objective.space.sample(random.Random(1))
        schemes = sorted(dict(c.params)["schemes"]
                         for c in objective.cells_for(point))
        assert schemes == ["reno+reno", "vegas+vegas"]


# ----------------------------------------------------------------------
# search_cohort cells and the registry family
# ----------------------------------------------------------------------

class TestSearchCohort:
    def test_parse_schemes_splits_on_plus(self):
        assert parse_schemes("reno+vegas") == ["reno", "vegas"]

    def test_parse_schemes_rejects_empty_and_oversized(self):
        with pytest.raises(ReproError):
            parse_schemes("")
        with pytest.raises(ReproError, match="capped at 16"):
            parse_schemes("+".join(["reno"] * 17))

    def test_cohort_horizon_is_bounded(self):
        assert cohort_horizon(1, 48, 1000.0) == 30.0
        assert cohort_horizon(8, 600, 50.0) == 240.0
        mid = cohort_horizon(2, 300, 50.0)
        assert 30.0 < mid < 240.0

    def test_search_cohort_cell_runs_through_the_harness(self):
        from repro.harness.runner import run_cells

        cell = Cell.make("search_cohort", schemes="reno+vegas",
                         bw_kbps=200.0, delay_ms=10.0, buffers=10,
                         size_kb=48, loss=0.0, seed=0)
        report = run_cells([cell], jobs=1, timeout_s=None)
        assert not report.failures
        metrics = report.results[0].metrics
        assert metrics["flows"] == 2.0
        for key in ("f0_throughput_kbps", "f1_throughput_kbps",
                    "fairness_index"):
            assert key in metrics


# ----------------------------------------------------------------------
# Artifact + leaderboard
# ----------------------------------------------------------------------

class TestArtifact:
    def _outcome(self):
        return run_search(stub_objective(), strategy="random", budget=6,
                          seed=0, opts=SERIAL)

    def test_document_round_trips(self, tmp_path):
        outcome = self._outcome()
        doc = build_search_document(outcome, top=3, src_hash="abc123")
        path = str(tmp_path / "search_result.json")
        write_document(path, doc)
        loaded = load_search_document(path)
        assert loaded == json.loads(json.dumps(doc))  # JSON-clean
        assert loaded["schema_version"] == SEARCH_SCHEMA
        assert loaded["run"]["evaluations"] == 6
        assert len(loaded["leaderboard"]) <= 3
        assert loaded["best"] == loaded["leaderboard"][0]
        assert loaded["src_hash"] == "abc123"
        assert loaded["space"] == STUB_SPACE.describe()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": "repro-search/v0"}))
        with pytest.raises(ReproError, match="schema"):
            load_search_document(str(path))
        with pytest.raises(ReproError, match="cannot read"):
            load_search_document(str(tmp_path / "missing.json"))

    def test_leaderboard_lists_ranked_points(self):
        outcome = self._outcome()
        board = render_leaderboard(outcome, top=5)
        assert "Search leaderboard — stub" in board
        assert "budget 6, seed 0" in board
        best = outcome.best
        assert f"{best.fitness:.3f}" in board

    def test_leaderboard_with_no_scored_points(self):
        outcome = run_search(
            stub_objective(scorer=lambda point, metrics: None),
            strategy="random", budget=3, seed=0, opts=SERIAL)
        assert outcome.best is None
        assert "(no successful evaluations)" in render_leaderboard(outcome)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestSearchCli:
    def test_quick_search_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        result = str(tmp_path / "search_result.json")
        board = str(tmp_path / "leaderboard.md")
        code = main(["search", "--objective", "vegas_regret", "--quick",
                     "--strategy", "random", "--budget", "3", "--seed",
                     "0", "--jobs", "1", "--no-cache",
                     "--result", result, "--out", board])
        assert code == 0
        doc = load_search_document(result)
        assert doc["run"]["evaluations"] == 3
        captured = capsys.readouterr()
        assert "Search leaderboard — vegas_regret" in captured.out
        with open(board) as handle:
            assert "Search leaderboard" in handle.read()

    def test_bad_budget_exits_2(self, capsys):
        from repro.cli import main

        code = main(["search", "--objective", "vegas_regret",
                     "--budget", "0"])
        assert code == 2
        assert "--budget" in capsys.readouterr().err
