"""The one instrumentation registry: which instruments are armed.

The paper's argument is made by watching connections without
perturbing them.  Every process-wide instrument that does so — the
invariant checker, the fault session, the liveness watchdog, the
telemetry gauges and the perf probe — is armed here and nowhere else::

    with armed(checker=chk, watchdog=guard):
        run_experiment()          # components self-register

Components wire themselves at *construction* time: a new
:class:`~repro.sim.engine.Simulator` binds :func:`active` for its
lifetime (an instrument armed later is not called by it), and every
TCP connection, queue, channel and LAN runs one ``for inst in
active(): inst.register_x(self)`` loop.  With nothing armed that is an
empty tuple per constructor and one truthiness test per event.

This module imports only the standard library, so the simulator core
(``sim/``, ``net/``, ``tcp/``) consults it without importing any of
the instruments that watch it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

#: Role -> how a refused arming names it.  The key order is the call
#: order of the engine's observer loop.
_NOUNS = {
    "checker": "an invariant checker",
    "faults": "a fault plan",
    "watchdog": "a liveness watchdog",
    "gauges": "a telemetry sampler",
    "probe": "a perf probe",
}

#: The instrument roles, in the order their hooks are called.
ROLES: Tuple[str, ...] = tuple(_NOUNS)


class Instrument:
    """What the simulator core calls on every armed instrument.

    Every hook is a no-op; an instrument overrides the ones it uses.
    Hooks read state and never schedule, so ``events_processed`` is
    identical however many instruments are armed.
    """

    __slots__ = ()

    def register_simulator(self, sim) -> None:
        """A :class:`~repro.sim.engine.Simulator` was built."""

    def register_connection(self, conn) -> None:
        """A :class:`~repro.tcp.connection.TCPConnection` was built."""

    def register_queue(self, queue) -> None:
        """A :class:`~repro.net.queue.DropTailQueue` was built."""

    def register_channel(self, channel) -> None:
        """A :class:`~repro.net.link.Channel` was built."""

    def register_lan(self, lan) -> None:
        """An :class:`~repro.net.link.EthernetLan` was built."""

    def on_event(self, sim, fn) -> None:
        """The engine is about to dispatch *fn*."""

    def on_run_end(self, sim) -> None:
        """``Simulator.run()`` is returning."""


# Role -> armed instrument, kept in ROLES order.
_active: Dict[str, Instrument] = {}


def active() -> Tuple[Instrument, ...]:
    """The armed instruments, in :data:`ROLES` order."""
    return tuple(_active.values())


def get(role: str) -> Optional[Instrument]:
    """The instrument armed under *role*, or ``None``."""
    return _active.get(role)


@contextmanager
def armed(**by_role: Instrument) -> Iterator[None]:
    """Arm one instrument per named role for the duration of a block.

    A refused arming changes nothing: an unknown role (``TypeError``)
    or a role that is already armed (``RuntimeError``) is rejected
    before anything is installed.  On exit exactly the roles this call
    installed are removed, so nested armings of different roles unwind
    to the outer set.
    """
    for role in by_role:
        if role not in _NOUNS:
            raise TypeError(f"unknown instrument role {role!r} "
                            f"(known: {', '.join(ROLES)})")
        if role in _active:
            raise RuntimeError(f"{_NOUNS[role]} is already active")
    merged = {**_active, **by_role}
    _active.clear()
    _active.update((role, merged[role]) for role in ROLES if role in merged)
    try:
        yield
    finally:
        for role in by_role:
            del _active[role]
