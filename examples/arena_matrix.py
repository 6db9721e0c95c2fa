#!/usr/bin/env python3
"""A custom arena matrix: choose the schemes, scenarios and matchups.

``python -m repro run-all --experiments arena`` runs the registered
grids (``--quick``: Vegas, Reno and Tahoe on classic and shallow plus a
Vegas/Reno lte slice; full: every roster scheme on every scenario).
Any other selection is a few lines of library code:
:func:`~repro.arena.matrix.generate_matrix` checks the names and
expands them into harness cells, :func:`~repro.harness.run_cells` runs
them (here in-process; pass ``jobs=`` and ``timeout_s=`` for forked
workers, ``cache=`` to reuse results) and
:func:`~repro.arena.league.render_league` prints the standings.

This one sets Vegas against the §3.2 prior schemes (DUAL, CARD,
Tri-S): each alone, in every 1v1 duel, and as one flow among two Reno
cross flows, on the test-sized ``smoke`` bottleneck so it finishes in
seconds.

Run:  python examples/arena_matrix.py
"""

from repro.arena.league import render_league
from repro.arena.matrix import generate_matrix
from repro.harness import build_document, run_cells


def main():
    cells = generate_matrix(schemes=["vegas", "dual", "card", "tri-s"],
                            scenarios=["smoke"], seeds=1,
                            modes=("solo", "duel", "mix"),
                            cross="reno", n_cross=2)
    report = run_cells(cells)
    doc = build_document(report, "arena", src_hash="")
    print(render_league(doc["cells"],
                        title="Vegas and the §3.2 prior schemes"))


if __name__ == "__main__":
    main()
