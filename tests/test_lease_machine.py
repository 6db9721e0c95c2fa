"""A stateful model of :class:`~repro.harness.lease.LeaseTable`.

The master drives the table with five calls, in whatever order its
sockets and scans deliver them.  This machine drives the same calls on
a fake clock — grant, ``settle_ok``, ``settle_fail``, expiring what
``expired(now)`` returns, ``revoke_worker``, and settles by a worker
that no longer holds the lease — with at most one lease per worker, as
the master grants.  After every step no cell is settled twice, settled
plus ``outstanding()`` is every cell, and a quarantined cell has used
exactly ``retries + 1`` attempts; a stale settle changes nothing.

It runs twice: with no lease grace (``--jobs``, forked workers on
loopback) and with the attach grace ``--bind`` gives every lease.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.harness.dist.protocol import DEFAULT_LEASE_GRACE_S
from repro.harness.lease import LeaseTable
from repro.harness.registry import Cell

CELLS = [Cell.make("sendbuf", cc=cc, size_kb=size, seed=0)
         for cc in ("reno", "vegas") for size in (5, 10)]
WORKERS = ("w0", "w1", "w2")
TIMEOUT_S = 1.0
workers = st.sampled_from(WORKERS)


class LeaseMachine(RuleBasedStateMachine):
    grace = 0.0

    @initialize(retries=st.integers(0, 2))
    def start(self, retries):
        self.retries = retries
        self.table = LeaseTable(CELLS, timeout_s=TIMEOUT_S, retries=retries,
                                backoff_base=0.05, lease_grace_s=self.grace)
        self.now = 0.0
        self.held = {}          # worker -> its live lease id
        self.issued = []        # (lease id, worker) of every grant
        self.settled = []       # keys, in the order they settled

    def _settle(self, task, outcome=("ok", 0.0)):
        if outcome[0] != "retry":
            assert task.key not in self.settled, task.key
            self.settled.append(task.key)

    def _snapshot(self):
        table = self.table
        return ([task.key for task in table.pending], sorted(table.leases),
                len(table.successes), len(table.failures),
                [task.attempts for task in table.pending])

    @rule(dt=st.floats(0.0, 1.5 * (TIMEOUT_S + DEFAULT_LEASE_GRACE_S)))
    def advance(self, dt):
        self.now += dt

    @rule(worker=workers)
    def grant(self, worker):
        if worker in self.held:         # the master's one lease per worker
            return
        lease = self.table.grant(worker, self.now)
        if lease is not None:
            assert lease.deadline == self.now + TIMEOUT_S + self.grace
            self.held[worker] = lease.lease_id
            self.issued.append((lease.lease_id, worker))

    @rule(worker=workers)
    def settle_ok(self, worker):
        lease_id = self.held.pop(worker, None)
        if lease_id is None:
            return
        result = self.table.settle_ok(lease_id, worker, {"x": 1.0}, 0.1)
        assert result is not None
        self._settle(result.cell)

    @rule(worker=workers)
    def settle_fail(self, worker):
        lease_id = self.held.pop(worker, None)
        if lease_id is None:
            return
        settled = self.table.settle_fail(lease_id, worker, "crash", "boom",
                                         {}, 0.1, self.now)
        assert settled is not None
        self._settle(*settled)

    @rule()
    def expire(self):
        for lease in self.table.expired(self.now):
            assert self.held.pop(lease.worker) == lease.lease_id
            self._settle(lease.task, self.table.expire(lease, self.now))

    @rule(worker=workers)
    def revoke_worker(self, worker):
        lease_id = self.held.pop(worker, None)
        revoked = self.table.revoke_worker(worker, "gone", self.now)
        assert [lease.lease_id for lease, _ in revoked] == (
            [] if lease_id is None else [lease_id])
        for lease, outcome in revoked:
            self._settle(lease.task, outcome)

    @precondition(lambda self: self.issued)
    @rule(data=st.data(), ok=st.booleans())
    def stale_settle(self, data, ok):
        """A result for a lease this worker does not hold now: one that
        expired, was revoked or settled, or another worker's."""
        lease_id, holder = data.draw(st.sampled_from(self.issued))
        worker = data.draw(workers)
        if self.held.get(worker) == lease_id:
            return
        before, stale = self._snapshot(), self.table.stale_results
        if ok:
            outcome = self.table.settle_ok(lease_id, worker, {}, 0.1)
        else:
            outcome = self.table.settle_fail(lease_id, worker, "crash",
                                             "late", {}, 0.1, self.now)
        assert outcome is None
        assert self._snapshot() == before
        assert self.table.stale_results == stale + 1

    @invariant()
    def every_cell_settles_once(self):
        table = self.table
        keys = ([result.key for result in table.successes]
                + [failure.key for failure in table.failures])
        assert sorted(keys) == sorted(self.settled)
        assert len(set(keys)) == len(keys)
        assert len(keys) + table.outstanding() == len(CELLS)
        assert {table.leases[lease_id].worker for lease_id
                in table.leases} == set(self.held)

    @invariant()
    def a_quarantined_cell_spent_every_attempt(self):
        for failure in self.table.failures:
            assert failure.attempts == self.retries + 1
            assert len(failure.attempt_log) == self.retries + 1


class AttachedLeaseMachine(LeaseMachine):
    grace = DEFAULT_LEASE_GRACE_S


# Sized for tier-1: the two machines together run in a few seconds.
SIZE = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestLoopbackLeases = LeaseMachine.TestCase
TestLoopbackLeases.settings = SIZE
TestAttachedLeases = AttachedLeaseMachine.TestCase
TestAttachedLeases.settings = SIZE
