"""Per-channel fault injection.

A :class:`ChannelFaults` sits on one :class:`~repro.net.link.Channel`
between "the last bit left the wire" and "the destination receives the
packet".  The channel calls :meth:`process` instead of delivering
directly; the injector then drops, duplicates, delays or holds the
packet according to its :class:`~repro.faults.plan.FaultPlan`.

Randomness comes from a per-channel ``random.Random`` seeded from
SHA-256 of ``(plan seed, channel name)``, so every channel draws an
independent, reproducible stream: the same plan on the same topology
injects the same faults regardless of how events interleave across
channels.

Fault semantics:

* **corruption-drop** — the packet is discarded at delivery time, as
  if its checksum failed on arrival (counted as ``corrupt_drops``).
* **flap** — the link follows a deterministic up/down schedule; while
  down, arriving packets are discarded (``flap_drops``).
* **duplication** — the packet is delivered, then delivered again
  immediately (``duplicates``).
* **reordering window** — the packet is held; it is released when a
  later packet passes it (arriving behind it) or when a hold timer
  expires, whichever is first (``reorders``).
* **jitter spike** — delivery is postponed by a uniform extra delay in
  ``(0, jitter_max]`` (``delay_spikes``).
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.faults.plan import FaultPlan
from repro.net.packet import Packet
from repro.sim.observers import Instrument, armed

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Channel


def _channel_rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class ChannelFaults:
    """Fault state for one unidirectional channel."""

    def __init__(self, plan: FaultPlan, channel: "Channel"):
        self.plan = plan
        self.channel = channel
        self.rng = _channel_rng(plan.seed, channel.name)
        self._held: List[Packet] = []
        # Counters, also consumed by the invariant checker's link
        # conservation audit (absorbed/extra below).
        self.corrupt_drops = 0
        self.flap_drops = 0
        self.duplicates = 0
        self.reorders = 0
        self.delay_spikes = 0
        self.timer_releases = 0

    # ------------------------------------------------------------------
    # Accounting consumed by the invariant checker
    # ------------------------------------------------------------------
    @property
    def absorbed(self) -> int:
        """Packets the injector destroyed instead of delivering."""
        return self.corrupt_drops + self.flap_drops

    @property
    def extra(self) -> int:
        """Extra deliveries the injector created (duplicates)."""
        return self.duplicates

    @property
    def held(self) -> int:
        """Packets currently parked in a reordering window."""
        return len(self._held)

    def counters(self) -> dict:
        return {
            "corrupt_drops": self.corrupt_drops,
            "flap_drops": self.flap_drops,
            "duplicates": self.duplicates,
            "reorders": self.reorders,
            "delay_spikes": self.delay_spikes,
        }

    # ------------------------------------------------------------------
    # Flap schedule
    # ------------------------------------------------------------------
    def is_down(self, now: float) -> bool:
        """True while the flap schedule has the link down.

        The schedule is a deterministic function of time — the link is
        down for the last ``flap_down`` seconds of every
        ``flap_period`` cycle — so tests and differential runs can
        predict exactly which intervals are dark.
        """
        period = self.plan.flap_period
        down = self.plan.flap_down
        if period <= 0 or down <= 0:
            return False
        return now % period >= period - down

    # ------------------------------------------------------------------
    # The injection point
    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> None:
        """Decide the fate of *packet* at its normal delivery instant."""
        channel = self.channel
        now = channel.sim.now
        if self.is_down(now):
            self.flap_drops += 1
            channel.note_fault_drop(packet)
            return
        if self.plan.drop and self.rng.random() < self.plan.drop:
            self.corrupt_drops += 1
            channel.note_fault_drop(packet)
            return
        if self.plan.reorder and self.rng.random() < self.plan.reorder:
            # Park the packet; a later packet passing it (or the hold
            # timer) releases it, so it arrives out of order but never
            # vanishes.
            self.reorders += 1
            self._held.append(packet)
            channel.sim.schedule_anon(self.plan.reorder_hold,
                                 self._timer_release, packet)
            return
        if self.plan.jitter and self.rng.random() < self.plan.jitter:
            self.delay_spikes += 1
            spike = self.rng.uniform(0.0, self.plan.jitter_max)
            channel.sim.schedule_anon(spike, self._deliver_and_flush, packet)
            return
        self._deliver_and_flush(packet)

    def _deliver_and_flush(self, packet: Packet) -> None:
        channel = self.channel
        channel.deliver_now(packet)
        if self.plan.duplicate and self.rng.random() < self.plan.duplicate:
            self.duplicates += 1
            channel.deliver_extra(packet)
        # Any parked packets have now been overtaken: release them in
        # their original relative order.
        while self._held:
            channel.deliver_now(self._held.pop(0))

    def _timer_release(self, packet: Packet) -> None:
        if packet in self._held:
            self._held.remove(packet)
            self.timer_releases += 1
            self.channel.deliver_now(packet)


class FaultSession(Instrument):
    """One arming of a plan: the plan plus its live injectors.

    Armed under the ``faults`` role of :mod:`repro.sim.observers`;
    every newly built channel asks it to :meth:`attach`, and the
    harness totals the injectors' counters after the run.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injectors: List[ChannelFaults] = []

    def attach(self, channel: "Channel") -> Optional[ChannelFaults]:
        """Attach an injector to *channel* if the plan targets it."""
        if self.plan.is_null() or not self.plan.matches(channel.name):
            return None
        injector = ChannelFaults(self.plan, channel)
        self.injectors.append(injector)
        return injector

    def totals(self) -> Dict[str, int]:
        """Summed fault counters across every attached channel."""
        totals: Dict[str, int] = {}
        for injector in self.injectors:
            for key, value in injector.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals


@contextmanager
def injecting(plan: Union[FaultPlan, str]):
    """Context manager: run a block with *plan* (a FaultPlan or spec
    string) armed."""
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    session = FaultSession(plan)
    with armed(faults=session):
        yield session
