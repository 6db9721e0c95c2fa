"""The cell scheduler core: leases, retries, deadlines, quarantine.

Every supervised sweep — ``--jobs N`` or ``--backend dist``, both the
socket master (:mod:`repro.harness.dist.master`) — is driven by one
:class:`LeaseTable`.  The master only moves cells and payloads; what
an attempt *means* is decided here, once:

* a cell is never *sent* to a worker, it is **leased** — granted with a
  deadline sized from the cell's budget (the sweep's ``--timeout``,
  widened by its experiment's declared ``budget``) plus the
  transport's grace;
* a result arriving before the deadline settles the lease into a
  :class:`CellResult`;
* the deadline passing **expires** the lease: the attempt is recorded
  as ``timeout`` and the cell re-queues.  A result arriving after
  expiry is *stale* and dropped (the cell may already be leased
  elsewhere) — the table refuses to settle a lease it no longer holds;
* a worker going silent or being given up on revokes every lease it
  held with the distinct ``worker-lost`` kind (a local worker that
  *exits* under its cell is the master's call: that is a ``crash``).

Failed attempts are retried up to ``retries`` times with a seeded
deterministic backoff (a pure function of the cell key and attempt
number — two runs of the same sweep wait the same amount).  A cell
that exhausts its attempts becomes a :class:`FailureRecord` in the
sweep's failure manifest; sibling cells are unaffected.

The table is plain single-threaded state and takes ``now`` explicitly
everywhere, which is what makes expiry/backoff behaviour unit-testable
without sleeping.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.registry import Cell, cell_budget

#: The failure taxonomy, in display order.  ``worker-lost`` means the
#: *worker* went silent or was given up on, not the cell's own code —
#: distinct from a cell-level ``crash`` (which includes the cell taking
#: its own forked worker down) so retry budgets and dashboards can tell
#: infrastructure failures from simulation failures.
FAILURE_KINDS = ("timeout", "crash", "divergence", "check-violation",
                 "worker-lost")

#: Default per-cell wall-clock budget (seconds).  The slowest quick
#: cell finishes in single-digit seconds on any hardware CI uses; two
#: minutes is "hung", not "slow".
DEFAULT_TIMEOUT_S = 120.0

#: Default retry budget: one re-execution before quarantine.
DEFAULT_RETRIES = 1

#: Base of the deterministic backoff schedule (seconds).
DEFAULT_BACKOFF_BASE = 0.05


@dataclass
class CellResult:
    """One executed (or cache-served) cell.

    ``worker`` names the executing socket worker (``None`` in-process
    and from the cache), ``attempts`` counts executions
    including the successful one, and ``attempt_log`` carries any
    failed attempts that preceded it — together the provenance fields
    of artifact schema v3.
    """

    cell: Cell
    metrics: Dict[str, float]
    wall_clock_s: float
    cached: bool = False
    worker: Optional[str] = None
    attempts: int = 1
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def key(self) -> str:
        return self.cell.key

    def settled_line(self) -> str:
        """The progress line announcing this result."""
        note = " (retry)" if self.attempts > 1 else ""
        return f"{self.key}: {self.wall_clock_s:.2f}s{note}"


@dataclass
class FailureRecord:
    """One quarantined cell: the structured entry of the failure manifest."""

    key: str
    experiment: str
    kind: str                     # one of FAILURE_KINDS (final attempt)
    message: str
    attempts: int                 # executions, including the first
    wall_clock_s: float           # summed across every attempt
    detail: Dict[str, Any] = field(default_factory=dict)
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "experiment": self.experiment,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "wall_clock_s": self.wall_clock_s,
            "detail": self.detail,
            "attempt_log": self.attempt_log,
        }


def retry_backoff(key: str, attempt: int,
                  base: float = DEFAULT_BACKOFF_BASE) -> float:
    """Deterministic exponential backoff with seeded jitter.

    A pure function of ``(cell key, attempt)``: doubling per attempt,
    scaled by a jitter factor in ``[0.5, 1.5)`` drawn from SHA-256 of
    the pair — reproducible across runs and hosts, no shared RNG
    state, and distinct cells never thundering-herd their retries.
    """
    digest = hashlib.sha256(f"{key}#retry{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:4], "big") / 2 ** 32
    return base * (2 ** max(0, attempt - 1)) * jitter


@dataclass
class Task:
    """One cell's book-keeping across its attempts."""

    cell: Cell
    attempts: int = 0
    not_before: float = 0.0       # backoff gate (the transport's clock)
    wall_clock_s: float = 0.0
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def key(self) -> str:
        return self.cell.key


@dataclass
class Lease:
    """One outstanding grant: a cell on a worker, with a deadline."""

    lease_id: str
    task: Task
    worker: str
    attempt: int
    budget_s: Optional[float]
    deadline: float               # the transport's clock; inf when unbounded


#: What settling a failed attempt decided: ``("retry", backoff_s)`` or
#: ``("quarantine", 0.0)``.
Outcome = Tuple[str, float]


class LeaseTable:
    """Pending cells, outstanding leases, and the retry policy.

    The master drives it with five calls: :meth:`grant` when a worker
    slot is idle, :meth:`settle_ok` / :meth:`settle_fail` when payloads
    arrive, :meth:`expire` on its periodic scan, and
    :meth:`revoke_worker` when a worker is lost.  ``lease_grace_s`` is
    what is added on top of a cell's budget: zero for ``--jobs``
    (forked workers on loopback), seconds for ``--backend dist``.
    """

    def __init__(self, cells, timeout_s: Optional[float],
                 retries: int,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 lease_grace_s: float = 0.0):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        # `not 0 < nan` is true: a NaN or infinite deadline can never
        # expire, so it is no deadline at all.
        if timeout_s is not None and not 0 < timeout_s < math.inf:
            raise ValueError("timeout_s must be positive and finite, "
                             f"got {timeout_s}")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base = backoff_base
        self.lease_grace_s = lease_grace_s
        # Longest-first packing: granting the biggest declared budgets
        # first keeps a 1,000-flow cell from becoming the straggler tail
        # of the sweep.  The sort is stable and keyed on the *declared*
        # budget only, so it cannot change any cell's metrics — artifact
        # fingerprints stay backend-independent (results are re-sorted
        # by key downstream).  ``None`` budgets (unsupervised runs) are
        # unbounded, so they sort first.
        def _declared(cell: Cell) -> float:
            budget = cell_budget(cell, timeout_s)
            return float("inf") if budget is None else budget

        self.pending: List[Task] = [
            Task(cell) for cell in sorted(cells, key=_declared, reverse=True)]
        self.leases: Dict[str, Lease] = {}
        self.successes: List[CellResult] = []
        self.failures: List[FailureRecord] = []
        self._next_lease = 0
        # Counters folded into telemetry / `repro report`.
        self.expired_leases = 0
        self.stale_results = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return not self.pending and not self.leases

    def outstanding(self) -> int:
        """Cells not yet settled (pending + leased)."""
        return len(self.pending) + len(self.leases)

    def next_due(self, now: float) -> Optional[Task]:
        """Pop the first pending task whose backoff gate is open."""
        for index, task in enumerate(self.pending):
            if task.not_before <= now:
                return self.pending.pop(index)
        return None

    def earliest_gate(self) -> Optional[float]:
        """The soonest ``not_before`` among pending tasks, if any."""
        if not self.pending:
            return None
        return min(task.not_before for task in self.pending)

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------
    def grant(self, worker: str, now: float) -> Optional[Lease]:
        """Lease the next due cell to *worker*, or ``None`` if none."""
        task = self.next_due(now)
        if task is None:
            return None
        task.attempts += 1
        self._next_lease += 1
        budget = cell_budget(task.cell, self.timeout_s)
        deadline = (float("inf") if budget is None
                    else now + budget + self.lease_grace_s)
        lease = Lease(lease_id=f"L{self._next_lease}", task=task,
                      worker=worker, attempt=task.attempts,
                      budget_s=budget, deadline=deadline)
        self.leases[lease.lease_id] = lease
        return lease

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def _take(self, lease_id: str, worker: str) -> Optional[Lease]:
        """Claim a live lease for settling; ``None`` if stale.

        Stale = the lease expired (and was re-queued or re-granted) or
        belongs to a different worker incarnation.  Dropping stale
        settlements is the no-cache-poisoning guarantee: only the
        current holder of a live lease can file a result for its cell.
        """
        lease = self.leases.get(lease_id)
        if lease is None or lease.worker != worker:
            self.stale_results += 1
            return None
        del self.leases[lease_id]
        return lease

    def settle_ok(self, lease_id: str, worker: str,
                  metrics: Dict[str, float],
                  wall_clock_s: float) -> Optional[CellResult]:
        """A result arrived; returns its record, or ``None`` if stale."""
        lease = self._take(lease_id, worker)
        if lease is None:
            return None
        task = lease.task
        task.wall_clock_s += wall_clock_s
        result = CellResult(cell=task.cell, metrics=metrics,
                            wall_clock_s=wall_clock_s, worker=worker,
                            attempts=task.attempts,
                            attempt_log=list(task.attempt_log))
        self.successes.append(result)
        return result

    def settle_fail(self, lease_id: str, worker: str, kind: str,
                    message: str, detail: Dict[str, Any],
                    wall_clock_s: float, now: float,
                    ) -> Optional[Tuple[Task, Outcome]]:
        """A failure arrived; retry or quarantine the cell.

        Returns the task with its :data:`Outcome`, or ``None`` when the
        lease was stale.
        """
        lease = self._take(lease_id, worker)
        if lease is None:
            return None
        outcome = self._settle_attempt(lease.task, kind, message, detail,
                                       wall_clock_s, now)
        return (lease.task, outcome)

    def _settle_attempt(self, task: Task, kind: str, message: str,
                        detail: Dict[str, Any], wall_clock_s: float,
                        now: float) -> Outcome:
        task.wall_clock_s += wall_clock_s
        task.attempt_log.append({"attempt": task.attempts, "kind": kind,
                                 "message": message,
                                 "wall_clock_s": round(wall_clock_s, 6)})
        if task.attempts <= self.retries:
            backoff = retry_backoff(task.key, task.attempts,
                                    self.backoff_base)
            task.attempt_log[-1]["backoff_s"] = round(backoff, 6)
            task.not_before = now + backoff
            self.pending.append(task)
            return ("retry", backoff)
        self.failures.append(FailureRecord(
            key=task.key, experiment=task.cell.experiment, kind=kind,
            message=message, attempts=task.attempts,
            wall_clock_s=task.wall_clock_s, detail=detail,
            attempt_log=task.attempt_log))
        return ("quarantine", 0.0)

    # ------------------------------------------------------------------
    # Expiry and revocation
    # ------------------------------------------------------------------
    def expired(self, now: float) -> List[Lease]:
        """Leases past their deadline (not yet revoked)."""
        return [lease for lease in self.leases.values()
                if now >= lease.deadline]

    def expire(self, lease: Lease, now: float) -> Outcome:
        """Revoke one expired lease; the attempt settles as ``timeout``."""
        self.leases.pop(lease.lease_id, None)
        self.expired_leases += 1
        budget = lease.budget_s
        message = (f"lease expired: exceeded the per-cell budget of "
                   f"{budget:g}s on worker {lease.worker}")
        detail = {"timeout_s": budget, "worker": lease.worker}
        return self._settle_attempt(lease.task, "timeout", message, detail,
                                    budget, now)

    def revoke_worker(self, worker: str, reason: str,
                      now: float) -> List[Tuple[Lease, Outcome]]:
        """Revoke every lease held by *worker* (it died or went dark).

        Each revoked cell settles one ``worker-lost`` attempt — the
        infrastructure failed, not the cell — and re-queues (or
        quarantines, once attempts are exhausted).  Returns the
        revoked leases with their settle outcomes.
        """
        revoked = []
        for lease in [entry for entry in self.leases.values()
                      if entry.worker == worker]:
            del self.leases[lease.lease_id]
            outcome = self._settle_attempt(
                lease.task, "worker-lost",
                f"worker {worker} lost mid-cell ({reason})",
                {"worker": worker, "reason": reason}, 0.0, now)
            revoked.append((lease, outcome))
        return revoked


def note_failed_attempt(task: Task, outcome: Outcome, sink=None,
                        progress: Optional[Callable[[str], None]] = None,
                        worker: Optional[str] = None) -> None:
    """Announce one settled failed attempt: telemetry event + progress.

    Called right after the table settled the attempt, so a retry or a
    quarantine reads the same in the telemetry log (``cell.retry`` /
    ``cell.quarantine``, with ``worker=`` when there is one) and on
    stderr whatever settled it — a report, an expiry or a lost worker.
    """
    action, backoff = outcome
    entry = task.attempt_log[-1]
    kind = entry["kind"]
    where = {} if worker is None else {"worker": worker}
    if action == "retry":
        if sink is not None:
            sink.emit("cell.retry", cell=task.key, kind=kind,
                      attempt=task.attempts, backoff_s=round(backoff, 6),
                      **where)
        if progress is not None:
            progress(f"{task.key}: {kind} on attempt {task.attempts}, "
                     f"retrying in {backoff:.2f}s")
    else:
        if sink is not None:
            sink.emit("cell.quarantine", cell=task.key, kind=kind,
                      attempts=task.attempts, message=entry["message"],
                      **where)
        if progress is not None:
            progress(f"{task.key}: FAILED ({kind}) after "
                     f"{task.attempts} attempt(s)")
