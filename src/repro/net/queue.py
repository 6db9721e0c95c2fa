"""Drop-tail FIFO queues — the router buffers of the paper.

The paper's routers are "abstract entities supporting a particular
queuing discipline (FIFO)" with a small, fixed number of buffers
(10, 15 or 20 packets in the experiments).  :class:`DropTailQueue`
models exactly that: capacity counted in packets, arrivals beyond
capacity dropped at the tail.

The queue also keeps the statistics the paper's router traces record:
occupancy over time and the time/size of every drop.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.sim import observers


class DropTailQueue:
    """FIFO packet queue with a finite capacity in packets.

    Args:
        capacity: maximum number of queued packets (the router's buffer
            count).  ``None`` means unbounded, used for host NIC queues
            where the paper's experiments never drop.
        name: label used in traces.
        monitor: optional callback ``(time, event, packet, depth)``
            invoked with ``event`` in ``{"enq", "deq", "drop"}``.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "queue",
                 monitor: Optional[Callable[..., None]] = None):
        if capacity is not None and capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1 (or None)")
        self.capacity = capacity
        self.name = name
        self.monitor = monitor
        self._items: Deque[Packet] = deque()
        # Statistics
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.dropped_bytes = 0
        self.drops: List[Tuple[float, int]] = []  # (time, size) of each drop
        self.max_depth = 0
        # Instruments armed in repro.sim.observers (the checker's
        # conservation audit, the gauges' depth/drops) poll this queue.
        for inst in observers.active():
            inst.register_queue(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def offer(self, packet: Packet, now: float) -> bool:
        """Enqueue *packet*; return ``False`` (and drop it) when full."""
        # Hot path: locals instead of the is_full/len properties, one
        # len() call, monitor branch skipped when inactive.
        items = self._items
        depth = len(items)
        if self.capacity is not None and depth >= self.capacity:
            self.dropped += 1
            self.dropped_bytes += packet.size
            self.drops.append((now, packet.size))
            if self.monitor is not None:
                self.monitor(now, "drop", packet, depth)
            return False
        items.append(packet)
        self.enqueued += 1
        depth += 1
        if depth > self.max_depth:
            self.max_depth = depth
        if self.monitor is not None:
            self.monitor(now, "enq", packet, depth)
        return True

    def poll(self, now: float) -> Optional[Packet]:
        """Dequeue and return the head packet, or ``None`` when empty."""
        items = self._items
        if not items:
            return None
        packet = items.popleft()
        self.dequeued += 1
        if self.monitor is not None:
            self.monitor(now, "deq", packet, len(items))
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"DropTailQueue({self.name}, {len(self._items)}/{cap})"
