"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers
can catch one base class.  Configuration mistakes raise
:class:`ConfigurationError` at construction time rather than surfacing
as confusing behaviour mid-simulation.
"""

from __future__ import annotations

import sys


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


def exit_code(run, args) -> int:
    """Run one command-line verb under the one error policy.

    A :class:`ReproError` that reaches the top is the user's to fix (a
    bad flag, an unreadable input, an unwritable output): it prints as
    ``error: ...`` on stderr and exits 2, never as a traceback.
    """
    try:
        return run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


class ConfigurationError(ReproError, ValueError):
    """An object was constructed or wired with invalid parameters.

    Also a :class:`ValueError`: callers validating user-supplied specs
    (CLI fault strings, plan fields) can catch the stdlib type without
    importing this module.
    """


class SimulationError(ReproError):
    """The simulation reached an internally inconsistent state."""


class InvariantViolation(SimulationError):
    """A runtime invariant check failed.

    Raised (or collected) by :class:`repro.checks.InvariantChecker`.
    Carries enough structure to locate the failure without a debugger:
    the invariant's name, the simulated time, the subject component
    (queue/channel/connection label) and, where applicable, the flow.
    """

    def __init__(self, invariant: str, sim_time: float, subject: str = "",
                 flow: object = None, detail: str = ""):
        self.invariant = invariant
        self.sim_time = sim_time
        self.subject = subject
        self.flow = flow
        self.detail = detail
        where = subject or (str(flow) if flow is not None else "?")
        message = f"[t={sim_time:.6f}] {invariant} violated at {where}"
        if flow is not None and subject:
            message += f" (flow {flow})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class SimulationStalled(SimulationError):
    """The liveness watchdog detected a stalled simulation.

    Raised by :class:`repro.sim.watchdog.LivenessWatchdog` instead of
    letting a run spin (or silently drain) forever.  ``reason`` is
    ``"no-progress"`` (simulated time kept advancing but no registered
    connection moved a byte for ``stalled_for`` seconds) or
    ``"queue-drained"`` (the event heap emptied while transfers were
    unfinished).  ``snapshot`` is a list of per-connection state dicts
    (``snd_una``/``snd_nxt``, flight, timer status, ...) captured at
    detection time for post-mortem diagnosis.
    """

    def __init__(self, reason: str, sim_time: float,
                 stalled_for: float = 0.0, snapshot: object = None):
        self.reason = reason
        self.sim_time = sim_time
        self.stalled_for = stalled_for
        self.snapshot = list(snapshot) if snapshot else []
        message = f"[t={sim_time:.6f}] simulation stalled ({reason})"
        if reason == "no-progress":
            message += (f": no connection progress for "
                        f"{stalled_for:.1f}s of simulated time")
        elif reason == "queue-drained":
            message += ": event queue drained with transfers unfinished"
        if self.snapshot:
            message += f" [{len(self.snapshot)} connection(s) snapshotted]"
        super().__init__(message)


class RoutingError(ReproError):
    """A packet could not be routed to its destination."""


class ProtocolError(ReproError):
    """A TCP endpoint received a segment it cannot process."""
