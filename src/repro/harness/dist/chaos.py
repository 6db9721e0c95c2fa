"""Chaos cells: adversarial experiments for torturing the dist backend.

These cells exist to *fail* in precisely the ways the distributed
master must survive, so tests and the CI ``dist-smoke`` job can assert
the recovery behaviour instead of hoping for it:

``ok``      returns immediately (control group, and sweep filler).
``sleep``   sleeps ``delay`` seconds — with a small lease budget this
            runs past the deadline, exercising lease expiry and the
            result-after-expiry staleness race.
``exit``    ``os._exit(42)`` mid-cell: the worker process vanishes
            without reporting, exercising EOF detection and
            ``worker-lost`` revocation.
``stop``    ``SIGSTOP``s its own process: the worker (heartbeat thread
            included) freezes while the connection stays open,
            exercising heartbeat-silence detection.
``crash``   raises — an ordinary cell-level ``crash``, distinct from
            the infrastructure kinds above.
``flaky``   crashes on the first execution, succeeds on the second,
            using a marker file under the ``scratch`` parameter —
            exercising re-queue + deterministic backoff end to end.

The module registers the ``dist_chaos`` experiment at import time.  The
master's forked workers inherit that; an attached worker, a fresh
interpreter, gets it via ``--preload repro.harness.dist.chaos``.
Import is idempotent per process.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict

from repro.errors import ReproError
from repro.harness.registry import register_experiment

#: The experiment name the chaos runner registers under.
CHAOS_EXPERIMENT = "dist_chaos"


def chaos_cell(mode: str, delay: float = 0.0, seed: int = 0,
               scratch: str = "") -> Dict[str, float]:
    """Run one chaos cell.  Most modes do not return normally."""
    if mode == "ok":
        if delay:
            time.sleep(delay)
        return {"value": float(seed), "chaos": 0.0}
    if mode == "sleep":
        time.sleep(delay)
        return {"value": float(seed), "chaos": 1.0}
    if mode == "exit":
        os._exit(42)
    if mode == "stop":
        os.kill(os.getpid(), signal.SIGSTOP)
        # Only reached once something SIGCONTs or SIGKILLs fail; treat
        # resumption as success so the mode is safe under fork workers.
        return {"value": float(seed), "chaos": 2.0}
    if mode == "crash":
        raise RuntimeError(f"chaos crash (seed={seed})")
    if mode == "flaky":
        marker = os.path.join(scratch, f"flaky-{seed}.attempted")
        if os.path.exists(marker):
            return {"value": float(seed), "chaos": 3.0}
        with open(marker, "w") as handle:
            handle.write("attempt 1\n")
        raise RuntimeError(f"chaos flaky first attempt (seed={seed})")
    raise ReproError(f"unknown chaos mode {mode!r}")


try:
    register_experiment(CHAOS_EXPERIMENT, chaos_cell)
except ReproError:  # pragma: no cover - double import in one process
    pass
