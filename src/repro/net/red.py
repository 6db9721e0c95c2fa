"""Random Early Detection queueing discipline.

The paper's simulator supported "a particular queuing discipline
(e.g., FIFO)"; RED (Floyd & Jacobson, 1993 — contemporaneous with
Vegas) is the canonical alternative, and an interesting comparison
point: RED keeps router queues short by *router-side* early drops,
while Vegas keeps them short by *end-host* restraint.
``tests/test_red.py`` and ``tests/test_ecn.py`` run Reno over RED
(with and without ECN marks) against Vegas over drop-tail.

The implementation follows the 1993 paper: an EWMA of the queue
length, a linearly rising drop probability between ``min_th`` and
``max_th``, the inter-drop count correction, and the idle-time
adjustment that ages the average while the queue is empty.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue


class REDQueue(DropTailQueue):
    """RED: probabilistic early drops driven by the average queue."""

    def __init__(self, capacity: int, rng: random.Random,
                 min_th: float = 3.0, max_th: float = 9.0,
                 max_p: float = 0.1, weight: float = 0.2,
                 mean_packet_time: float = 0.005,
                 ecn: bool = False,
                 name: str = "red-queue",
                 monitor: Optional[Callable[..., None]] = None):
        super().__init__(capacity, name=name, monitor=monitor)
        #: With ECN enabled, an early "drop" of an ECN-capable packet
        #: becomes a congestion mark instead (RFC 3168 semantics).
        self.ecn = ecn
        self.marks = 0
        if not 0 < min_th < max_th:
            raise ConfigurationError("need 0 < min_th < max_th")
        if not 0 < max_p <= 1:
            raise ConfigurationError("max_p must be in (0, 1]")
        if not 0 < weight <= 1:
            raise ConfigurationError("weight must be in (0, 1]")
        self.rng = rng
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.weight = weight
        self.mean_packet_time = mean_packet_time
        self.avg = 0.0
        self._count_since_drop = -1
        self._idle_since: Optional[float] = 0.0
        self.early_drops = 0
        self.forced_drops = 0

    # ------------------------------------------------------------------
    def _update_avg(self, now: float) -> None:
        if not self._items and self._idle_since is not None:
            # Idle adjustment: age the average as if empty packets had
            # been arriving while the queue was idle.
            idle_packets = (now - self._idle_since) / self.mean_packet_time
            self.avg *= (1.0 - self.weight) ** max(0.0, idle_packets)
            self._idle_since = None
        self.avg = (1.0 - self.weight) * self.avg + self.weight * len(self._items)

    def _early_drop(self) -> bool:
        if self.avg < self.min_th:
            self._count_since_drop = -1
            return False
        if self.avg >= self.max_th:
            self._count_since_drop = 0
            return True
        self._count_since_drop += 1
        base_p = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
        denominator = 1.0 - self._count_since_drop * base_p
        p = base_p / denominator if denominator > 0 else 1.0
        if self.rng.random() < p:
            self._count_since_drop = 0
            return True
        return False

    # ------------------------------------------------------------------
    def offer(self, packet: Packet, now: float) -> bool:
        self._update_avg(now)
        if self._early_drop():
            if self.ecn and packet.ecn_capable and not self.is_full:
                # Mark instead of dropping: the sender gets the same
                # congestion signal without losing the data.
                packet.ecn_marked = True
                self.marks += 1
                return super().offer(packet, now)
            self.early_drops += 1
            self._drop(packet, now)
            return False
        if self.is_full:
            self.forced_drops += 1
            self._drop(packet, now)
            return False
        return super().offer(packet, now)

    def poll(self, now: float):
        packet = super().poll(now)
        if not self._items:
            self._idle_since = now
        return packet

    def _drop(self, packet: Packet, now: float) -> None:
        self.dropped += 1
        self.dropped_bytes += packet.size
        self.drops.append((now, packet.size))
        if self.monitor is not None:
            self.monitor(now, "drop", packet, len(self._items))
