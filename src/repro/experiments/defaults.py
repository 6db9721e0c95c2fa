"""Canonical experiment parameters.

The Figure-5 simulation network: hosts 1a/2a/3a on 10 Mb/s access
Ethernets into Router1, a 200 KB/s 50 ms bottleneck link to Router2,
and hosts 1b/2b/3b on the far side.  The base RTT is therefore
~100 ms, giving a bandwidth-delay product of ~20 segments; the paper
runs the bottleneck router with 10, 15 or 20 buffers, i.e. one half to
one BDP of queueing — the regime where Reno's probing is costly and
Vegas' α/β band fits comfortably.

The experiment modules and the harness's cell grids
(:mod:`repro.harness.registry`) both read these, and nothing re-types
them, so a single edit rescales the whole evaluation.  This module
imports nothing but :mod:`repro.units`.
"""

from __future__ import annotations

from repro.units import kb, kbps, mb, ms

#: Bottleneck link bandwidth (bytes/second): 200 KB/s.
BOTTLENECK_BANDWIDTH = kbps(200)

#: Bottleneck one-way propagation delay: 50 ms.
BOTTLENECK_DELAY = ms(50)

#: Router buffer counts used across the paper's experiments
#: (TABLE2_BUFFERS also serves Table 3 and the §4.3 two-way study).
DEFAULT_BUFFERS = 10
TABLE1_BUFFERS = (15, 20)
TABLE2_BUFFERS = (10, 15, 20)

#: Table 1's four column combinations, named small/large.
TABLE1_COMBOS = (("reno", "reno"), ("reno", "vegas"),
                 ("vegas", "reno"), ("vegas", "vegas"))

#: The measured transfer's protocols in Tables 2 and 4; Table 5 sweeps
#: the first two.
TRANSFER_PROTOCOLS = ("reno", "vegas-1,3", "vegas-2,4")

#: Runs per condition of a full grid (the ``--seeds`` default).
RUNS_PER_CONDITION = 3

#: Transfer sizes.
LARGE_TRANSFER = mb(1)
SMALL_TRANSFER = kb(300)
INTERNET_SIZES_KB = (1024, 512, 128)

#: The paper's socket buffer (50 KB) — and the §4.3 sweep below it.
SOCKBUF = 50 * 1024
SENDBUF_SIZES_KB = (5, 10, 15, 20, 30, 40, 50)

#: §4.3 "Multiple Competing Connections": connections per run.
FAIRNESS_COUNTS = (2, 4, 16)

#: §6 all-Vegas world: scarce, canonical and ample router buffers.
ALLVEGAS_BUFFERS = (4, 10, 20)

#: Ablation schemes (names as in :mod:`repro.experiments.ablation`) on
#: the solo Figure-5 run: α/β bands, the §3.2 prior schemes, and
#: BaseRTT pinned at a multiple of the true minimum.
ABLATION_SOLO = ("vegas-1,3", "vegas-2,4", "vegas-1,2", "vegas-4,6",
                 "vegas-6,10", "reno", "tahoe", "dual", "card", "tri-s",
                 "vegas-base0.5", "vegas-base0.8", "vegas-base1",
                 "vegas-base1.3", "vegas-base1.8")

#: Ablations on the Internet path: (scheme, size KB, runs).
ABLATION_INTERNET = (("vegas-1,3", 512, 5), ("vegas-noss", 512, 5),
                     ("vegas-1,3", 128, 5), ("vegas-noss", 128, 5),
                     ("vegas-nofine", 1024, 6))

#: TRAFFIC generator load producing Table-2-like contention on the
#: 200 KB/s bottleneck (mean seconds between conversation starts).
TRAFFIC_ARRIVAL_MEAN = 0.5

#: Start delays for the Table-1 small transfer ("ranging between 0 and
#: 2.5 seconds"); combined with TABLE1_BUFFERS this gives the paper's
#: 12 runs.
TABLE1_DELAYS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)

#: The arena: §3.2's schemes as a tournament (:mod:`repro.arena`).  A
#: grid is (schemes, scenarios) blocks, each swept solo, in every 1v1
#: duel and mixed among Reno cross flows.  The quick grid is the smoke
#: matrix plus the trace-driven lte slice; the full grid is the whole
#: roster on every scenario but the test-sized ``smoke``.
ARENA_SCHEMES = ("card", "dual", "newreno", "reno", "reno-sack", "tahoe",
                 "tri-s", "vegas")
ARENA_SCENARIOS = ("classic", "shallow", "deep", "lfn", "metro",
                   "steps", "lte", "wifi", "outage")
ARENA_QUICK = ((("vegas", "reno", "tahoe"), ("classic", "shallow")),
               (("vegas", "reno"), ("lte",)))
ARENA_FULL = ((ARENA_SCHEMES, ARENA_SCENARIOS),)

#: §4.4's one regime where Reno beats Vegas: a Reno flow that never
#: loses.  The ``crossover`` experiment duels one Reno and one Vegas
#: flow of CROSSOVER_TRANSFER_KB each on every (bandwidth KB/s, one-way
#: delay ms) point, across the router buffer axis, seeds
#: 0..CROSSOVER_RUNS-1; every flow completes within CROSSOVER_HORIZON
#: seconds.  The quick grid is buffers 10..50 by 10 at seed 0.
CROSSOVER_POINTS = ((200, 10), (255, 26), (500, 40), (200, 50))
CROSSOVER_BUFFERS = tuple(range(5, 61, 5))
CROSSOVER_RUNS = 4
CROSSOVER_TRANSFER_KB = 600
CROSSOVER_HORIZON = 34.0

#: Ports used by measured transfers (TRAFFIC owns the well-known ones).
TRANSFER_PORT = 7001

#: Simulation horizon for a single measured transfer (seconds).
TRANSFER_HORIZON = 300.0

# ----------------------------------------------------------------------
# The paper's published numbers, printed beside ours by the table
# renderers (:mod:`repro.harness.aggregate`).
# ----------------------------------------------------------------------

#: Table 1, keyed by small/large protocol pair.
PAPER_TABLE1: dict[str, dict[str, float]] = {
    "Small throughput (KB/s)": {
        "reno/reno": 60, "reno/vegas": 61, "vegas/reno": 66,
        "vegas/vegas": 74},
    "Large throughput (KB/s)": {
        "reno/reno": 109, "reno/vegas": 123, "vegas/reno": 119,
        "vegas/vegas": 131},
    "Small retransmits (KB)": {
        "reno/reno": 30, "reno/vegas": 43, "vegas/reno": 1.5,
        "vegas/vegas": 0.3},
    "Large retransmits (KB)": {
        "reno/reno": 22, "reno/vegas": 1.8, "vegas/reno": 18,
        "vegas/vegas": 0.1},
}

#: Table 2: the 1 MB transfer against tcplib background traffic.
PAPER_TABLE2: dict[str, dict[str, float]] = {
    "Throughput (KB/s)": {"reno": 58.3, "vegas-1,3": 89.4, "vegas-2,4": 91.8},
    "Retransmissions (KB)": {"reno": 55.4, "vegas-1,3": 27.1,
                             "vegas-2,4": 29.4},
    "Coarse timeouts": {"reno": 5.6, "vegas-1,3": 0.9, "vegas-2,4": 0.9},
}

#: Table 3: background throughput (KB/s), keyed by (background, transfer).
PAPER_TABLE3: dict[tuple[str, str], float] = {
    ("reno", "reno"): 68, ("reno", "vegas"): 82,
    ("vegas", "reno"): 84, ("vegas", "vegas"): 85,
}

#: Table 4: 1 MB over the emulated Internet path.
PAPER_TABLE4: dict[str, dict[str, float]] = {
    "Throughput (KB/s)": {"reno": 53.0, "vegas-1,3": 72.5,
                          "vegas-2,4": 75.3},
    "Retransmissions (KB)": {"reno": 47.8, "vegas-1,3": 24.5,
                             "vegas-2,4": 29.3},
    "Coarse timeouts": {"reno": 3.3, "vegas-1,3": 0.8, "vegas-2,4": 0.9},
}

#: Table 5: Table 4's path at three transfer sizes, keyed by bytes.
PAPER_TABLE5: dict[int, dict[str, dict[str, float]]] = {
    kb(1024): {"Throughput (KB/s)": {"reno": 53.0, "vegas-1,3": 72.5},
               "Retransmissions (KB)": {"reno": 47.8, "vegas-1,3": 24.5},
               "Coarse timeouts": {"reno": 3.3, "vegas-1,3": 0.8}},
    kb(512): {"Throughput (KB/s)": {"reno": 52.0, "vegas-1,3": 72.0},
              "Retransmissions (KB)": {"reno": 27.9, "vegas-1,3": 10.5},
              "Coarse timeouts": {"reno": 1.7, "vegas-1,3": 0.2}},
    kb(128): {"Throughput (KB/s)": {"reno": 31.1, "vegas-1,3": 53.1},
              "Retransmissions (KB)": {"reno": 22.9, "vegas-1,3": 4.0},
              "Coarse timeouts": {"reno": 1.1, "vegas-1,3": 0.2}},
}
