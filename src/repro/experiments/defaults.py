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

#: Ports used by measured transfers (TRAFFIC owns the well-known ones).
TRANSFER_PORT = 7001

#: Simulation horizon for a single measured transfer (seconds).
TRANSFER_HORIZON = 300.0
