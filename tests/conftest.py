"""Pytest configuration: make test-local helper modules importable."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def run_shared(tmp_path_factory):
    """``run_cells`` on two workers over one session-wide result cache.

    The ``run-all`` artifact tests and the paper-claim fixtures need
    overlapping cells (``run-all --experiments table2 --seeds 1`` is a
    third of the Table-2 claims grid);
    through this each cell is simulated once per session.  The workers
    are ``--jobs 2``'s, whose results equal an in-process run's (the
    sweep fingerprint gate); the deadline only catches a hang.
    """
    from repro.harness import ResultCache, run_cells

    cache = ResultCache(tmp_path_factory.mktemp("cells"), "session")

    def run(cells):
        report = run_cells(cells, cache=cache, jobs=2, timeout_s=600.0)
        assert not report.interrupted
        assert not report.failures, report.failures
        return report

    return run


@pytest.fixture
def run_all_shares_cells(monkeypatch, run_shared):
    """Serve ``run-all``'s ``run_cells`` call through :func:`run_shared`.

    The tests that use it pass no flag that changes a cell's metrics
    (``--checks``, ``--faults``), so only the transport is dropped.
    """
    from repro.harness import runner

    def through_cache(cells, checks=False, faults=None, **transport):
        assert not checks and faults is None
        return run_shared(cells)

    monkeypatch.setattr(runner, "run_cells", through_cache)
