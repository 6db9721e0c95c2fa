"""The fault-tolerant sweep transport.

The master shards a sweep's cells across worker processes — forked by
it (so they know every experiment it knows) or attached over a socket
as fresh interpreters (``--preload`` tells those what to import) — with
robustness as the design driver.  It is the *only* transport:
``--jobs N`` is this master with N forked workers, and ``--bind``
gives the same master an address others can attach to.  What a lease, a
retry or a quarantine means is decided by
:class:`repro.harness.lease.LeaseTable`.  There is no run journal:
results go to the result cache as they settle, so resuming a killed
sweep is re-running it.

* :mod:`~repro.harness.dist.protocol` — the newline-delimited JSON
  wire format (versioned; ``hello``/``heartbeat``/``grant``/``result``/
  ``fail``/``shutdown``);
* :mod:`~repro.harness.dist.master` — the event-driven ``selectors``
  master (:func:`~repro.harness.dist.master.run_distributed`);
* :mod:`~repro.harness.dist.worker` — the expendable worker process;
* :mod:`~repro.harness.dist.chaos` — adversarial cells used by the
  failure-mode tests and the CI smoke job.

Entry points: ``python -m repro run-all --jobs N --bind HOST:PORT``,
and ``python -m repro dist worker --connect HOST:PORT`` to attach extra
workers to a listening master.
"""

from repro.harness.dist.master import run_distributed
from repro.harness.dist.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "run_distributed",
]
