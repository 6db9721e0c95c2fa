"""Link-level abstractions: point-to-point links and Ethernet LANs.

These mirror the paper's simulator, which supported "point-to-point
connections and ethernets".

A point-to-point link is two independent unidirectional channels, each
with a bandwidth, a propagation delay and an egress drop-tail queue
(the router buffers live here — a router drops a packet when the
egress queue of its outgoing link is full, exactly the behaviour of
the paper's FIFO routers).

An Ethernet LAN is modelled abstractly: a shared medium serialising
transmissions first-come-first-served at the LAN bandwidth with a
small fixed latency.  The paper's access LANs are never the
bottleneck, so no collision modelling is needed — only the store-and-
forward serialisation delay matters.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.traces import BandwidthTrace, constant_trace
from repro.sim import observers
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


def validate_link_params(bandwidth: float, delay: float,
                         who: str = "link") -> None:
    """Shared construction guard for every link-layer component.

    One wording for channels, point-to-point links and LANs, so a bad
    topology fails the same way whichever layer catches it first.
    """
    if bandwidth <= 0:
        raise ConfigurationError(
            f"{who}: bandwidth must be positive, got {bandwidth!r}")
    if delay < 0:
        raise ConfigurationError(
            f"{who}: delay must be non-negative, got {delay!r}")


class Channel:
    """One direction of a point-to-point link.

    Packets enter through an egress :class:`DropTailQueue`; the channel
    drains the queue at ``bandwidth`` bytes/second and delivers each
    packet to ``dst`` after an additional propagation ``delay``.
    """

    def __init__(self, sim: Simulator, bandwidth: float, delay: float,
                 queue: DropTailQueue, name: str = "channel"):
        validate_link_params(bandwidth, delay, who=f"channel {name!r}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.delay = delay
        self.queue = queue
        self.name = name
        self.dst: Optional["Node"] = None
        self._busy = False
        self.bytes_delivered = 0
        self.packets_delivered = 0
        #: Packets dequeued but not yet delivered (serialising,
        #: propagating, or parked by an injected fault).
        self.in_transit = 0
        # Whatever is armed in repro.sim.observers at construction
        # time attaches here; the fault session is asked by name
        # because its injector sits on the delivery path below.
        session = observers.get("faults")
        self.faults = session.attach(self) if session is not None else None
        for inst in observers.active():
            inst.register_channel(self)
        # Hot-path bindings: the simulator and fault state are fixed
        # for the channel's lifetime.  When no fault session is
        # attached the propagation event jumps straight to
        # deliver_now, skipping the faults branch entirely.  The
        # queue's offer/poll are looked up per call on purpose — they
        # are a seam tests patch to inject targeted drops.
        self._schedule = sim.schedule_anon
        self._deliver_fn = self.deliver_now if self.faults is None else self._deliver
        # Prebound completion handle: one bound-method object reused by
        # every transmission instead of a fresh one per schedule call.
        self._tx_done_b = self._tx_done
        # The empty-queue fast exit in _tx_done skips the final poll()
        # round-trip — safe only for the stock poll, which has no
        # empty-queue side effects.  Subclasses may (REDQueue stamps
        # its idle-aging clock on an empty poll), so they keep the
        # exact historical poll sequence.
        self._plain_poll = type(queue).poll is DropTailQueue.poll

    def send(self, packet: Packet, _next_node: "Node" = None) -> bool:
        """Offer *packet* to the egress queue; start draining if idle.

        Returns ``False`` when the queue dropped the packet.  The
        unused second parameter lets a forwarding entry bind this
        method as its ``transmit`` directly (ports pass the next hop).
        """
        accepted = self.queue.offer(packet, self.sim.now)
        if accepted and not self._busy:
            self._transmit_next()
        return accepted

    def _transmit_next(self) -> None:
        packet = self.queue.poll(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self.in_transit += 1
        self._schedule(packet.size / self.bandwidth, self._tx_done_b, packet)

    def _tx_done(self, packet: Packet) -> None:
        # The wire is free as soon as the last bit leaves; the packet
        # arrives one propagation delay later.
        self._schedule(self.delay, self._deliver_fn, packet)
        # Empty-queue fast exit: skip the poll round-trip.  Tests patch
        # offer, never poll, so reading the deque directly makes the
        # same decision poll() would.
        if self.queue._items or not self._plain_poll:
            self._transmit_next()
        else:
            self._busy = False

    def _deliver(self, packet: Packet) -> None:
        if self.faults is not None:
            self.faults.process(packet)
        else:
            self.deliver_now(packet)

    def deliver_now(self, packet: Packet) -> None:
        """Hand *packet* to the destination (the clean-path delivery)."""
        self.in_transit -= 1
        self.bytes_delivered += packet.size
        self.packets_delivered += 1
        if self.dst is not None:
            self.dst.receive(packet)

    def deliver_extra(self, packet: Packet) -> None:
        """Deliver a duplicate of an already-delivered packet."""
        self.bytes_delivered += packet.size
        self.packets_delivered += 1
        if self.dst is not None:
            self.dst.receive(packet)

    def note_fault_drop(self, packet: Packet) -> None:
        """Account for a packet an injected fault destroyed in flight."""
        self.in_transit -= 1


class VariableRateChannel(Channel):
    """A channel that drains its queue at a time-varying rate.

    Instead of the closed-form ``packet.size / bandwidth``, each
    packet's serialisation time is the integral of a
    :class:`~repro.net.traces.BandwidthTrace` from the moment it is
    dequeued — so a rate change (or a zero-rate outage segment) in the
    middle of a transmission delays delivery by exactly the capacity
    lost, the way a mahimahi link defers delivery opportunities.

    ``loss`` adds stochastic per-packet loss *independent of queue
    drops*: each packet surviving to its delivery instant is destroyed
    with probability ``loss``, drawn from the caller-supplied seeded
    ``loss_rng`` so runs stay bit-reproducible.  Lost packets are
    counted in ``stochastic_losses`` (the invariant checker treats
    them like fault-absorbed packets).

    With a constant trace and ``loss=0`` the schedule degenerates to
    the parent's exact float arithmetic, so the channel is
    bit-identical to a static :class:`Channel` — the differential gate
    the baselines rely on.

    ``Channel.bandwidth`` is kept as the trace's cycle-mean rate: a
    nominal label for reports, never used in the drain computation.
    """

    def __init__(self, sim: Simulator, trace: BandwidthTrace, delay: float,
                 queue: DropTailQueue, name: str = "channel",
                 loss: float = 0.0,
                 loss_rng: Optional[random.Random] = None):
        super().__init__(sim, trace.mean_rate, delay, queue, name=name)
        self.trace = trace
        if not 0.0 <= loss < 1.0:
            raise ConfigurationError(
                f"channel {name!r}: loss must be in [0, 1), got {loss!r}")
        self.loss = loss
        self.stochastic_losses = 0
        if loss > 0.0:
            if loss_rng is None:
                raise ConfigurationError(
                    f"channel {name!r}: stochastic loss needs a seeded "
                    "loss_rng (determinism is part of the contract)")
            self._loss_rng = loss_rng
            # Wrap whatever delivery path the parent chose (clean or
            # faults-aware) behind the loss draw.
            self._post_loss_fn = self._deliver_fn
            self._deliver_fn = self._lossy_deliver

    def _transmit_next(self) -> None:
        packet = self.queue.poll(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self.in_transit += 1
        self._schedule(self.trace.time_to_send(packet.size, self.sim.now),
                       self._tx_done, packet)

    def _lossy_deliver(self, packet: Packet) -> None:
        if self._loss_rng.random() < self.loss:
            self.stochastic_losses += 1
            self.in_transit -= 1
            return
        self._post_loss_fn(packet)


class Port:
    """A node's attachment point to a link or LAN.

    Forwarding tables map a destination host to a ``(port, next_node)``
    pair; the port knows how to hand a packet toward that next node.
    """

    def transmit(self, packet: Packet, next_node: "Node") -> bool:
        raise NotImplementedError

    def neighbors(self) -> List["Node"]:
        raise NotImplementedError


class _P2PPort(Port):
    def __init__(self, channel: Channel, neighbor: "Node"):
        self.channel = channel
        self.neighbor = neighbor
        # Same trick as _LanPort: Channel.send tolerates the next-hop
        # argument, so the forwarding entry calls it without paying a
        # wrapper frame on every forwarded packet.
        self.transmit = channel.send

    def neighbors(self) -> List["Node"]:
        return [self.neighbor]


class PointToPointLink:
    """A bidirectional point-to-point link between two nodes.

    Each direction gets its own egress queue; ``queue_capacity``
    expresses the router-buffer count of the paper (``None`` for an
    unbounded host-side queue).

    With ``trace`` set (a :class:`~repro.net.traces.BandwidthTrace`)
    both directions drain along that time-varying profile instead of
    the static ``bandwidth``, which then serves only as a nominal
    label.  ``loss`` adds seeded stochastic loss (independent of queue
    drops) to both directions; it requires ``loss_rng``, a
    ``random.Random`` shared by the two channels so the draw sequence
    stays a deterministic function of the run's event order.

    Parameters are validated once here — the link layer's uniform
    guard — before any channel or port is built, so a bad link never
    leaves half-attached ports behind.
    """

    def __init__(self, sim: Simulator, a: "Node", b: "Node", bandwidth: float,
                 delay: float, queue_capacity: Optional[int] = None,
                 name: str = "", queue_factory=None,
                 trace: Optional[BandwidthTrace] = None, loss: float = 0.0,
                 loss_rng: Optional[random.Random] = None):
        self.name = name or f"{a.name}<->{b.name}"
        self.a = a
        self.b = b
        self.trace = trace
        validate_link_params(
            bandwidth if trace is None else trace.mean_rate, delay,
            who=f"link {self.name!r}")
        if queue_factory is not None:
            qa = queue_factory(f"{a.name}->{b.name}")
            qb = queue_factory(f"{b.name}->{a.name}")
        else:
            qa = DropTailQueue(queue_capacity, name=f"{a.name}->{b.name}")
            qb = DropTailQueue(queue_capacity, name=f"{b.name}->{a.name}")
        if trace is not None or loss > 0.0:
            ch_trace = trace if trace is not None \
                else constant_trace(bandwidth, name=self.name)
            self.ab = VariableRateChannel(sim, ch_trace, delay, qa,
                                          name=qa.name, loss=loss,
                                          loss_rng=loss_rng)
            self.ba = VariableRateChannel(sim, ch_trace, delay, qb,
                                          name=qb.name, loss=loss,
                                          loss_rng=loss_rng)
        else:
            self.ab = Channel(sim, bandwidth, delay, qa, name=qa.name)
            self.ba = Channel(sim, bandwidth, delay, qb, name=qb.name)
        self.ab.dst = b
        self.ba.dst = a
        a.add_port(_P2PPort(self.ab, b))
        b.add_port(_P2PPort(self.ba, a))

    def channel_from(self, node: "Node") -> Channel:
        """The unidirectional channel whose traffic *node* originates."""
        if node is self.a:
            return self.ab
        if node is self.b:
            return self.ba
        raise ConfigurationError(f"{node.name} is not an endpoint of {self.name}")


class _LanPort(Port):
    def __init__(self, lan: "EthernetLan", owner: "Node"):
        self.lan = lan
        self.owner = owner
        # LAN send already takes (packet, dst_node) — expose it as this
        # port's transmit directly instead of paying a wrapper frame on
        # every forwarded packet.
        self.transmit = lan.send

    def neighbors(self) -> List["Node"]:
        return [n for n in self.lan.nodes if n is not self.owner]


class EthernetLan:
    """An abstract shared-medium LAN.

    Transmissions are serialised FCFS at ``bandwidth`` with ``latency``
    added per packet.  The attachment queue is unbounded — the paper's
    LANs never drop; all loss happens at the bottleneck router.
    """

    def __init__(self, sim: Simulator, bandwidth: float, latency: float,
                 name: str = "lan"):
        validate_link_params(bandwidth, latency, who=f"LAN {name!r}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self.nodes: List["Node"] = []
        self._node_set: set = set()
        self.queue = DropTailQueue(None, name=f"{name}.medium")
        self._busy = False
        # Destination of each queued transmission, FIFO-parallel to the
        # medium queue (which is unbounded and never drops, so the two
        # stay in lockstep).  Per-transmission, not per-uid: a
        # duplicated packet (same uid, injected twice) must reach its
        # destination both times.
        self._dsts: Deque["Node"] = deque()
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self.in_transit = 0
        #: Packets that began serialising on an idle medium without
        #: touching the attachment queue (the idle-bypass in ``send``).
        #: The conservation audit adds this to ``queue.dequeued``.
        self.bypassed = 0
        for inst in observers.active():
            inst.register_lan(self)
        # Same scheduler binding as Channel; queue methods stay late-
        # bound (they are a patch seam for targeted-drop tests).
        self._schedule = sim.schedule_anon
        self._tx_done_b = self._tx_done
        self._deliver_b = self._deliver

    def attach(self, node: "Node") -> None:
        """Connect *node* to this LAN."""
        if node in self._node_set:
            raise ConfigurationError(f"{node.name} already attached to {self.name}")
        self.nodes.append(node)
        self._node_set.add(node)
        node.add_port(_LanPort(self, node))

    def send(self, packet: Packet, dst_node: "Node") -> bool:
        if dst_node not in self._node_set:
            raise ConfigurationError(
                f"{dst_node.name} is not attached to {self.name}")
        if not self._busy:
            # Idle medium: the queue round-trip (offer, then the
            # immediate poll in _transmit_next) is pure bookkeeping —
            # serialise directly.  The medium queue only ever holds
            # packets that arrive while the wire is busy.
            self._busy = True
            self.in_transit += 1
            self.bypassed += 1
            self._schedule(packet.size / self.bandwidth, self._tx_done_b,
                           packet, dst_node)
            return True
        # The dst FIFO mirrors the medium queue entry for entry.  The
        # medium is unbounded so offers normally always succeed, but a
        # patched/lossy queue must not desynchronise the two.
        if self.queue.offer(packet, self.sim.now):
            self._dsts.append(dst_node)
        return True

    def _transmit_next(self) -> None:
        packet = self.queue.poll(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self.in_transit += 1
        self._schedule(packet.size / self.bandwidth, self._tx_done_b,
                       packet, self._dsts.popleft())

    def _tx_done(self, packet: Packet, dst: "Node") -> None:
        self._schedule(self.latency, self._deliver_b, packet, dst)
        # The dst FIFO is in lockstep with the medium queue, so an
        # empty _dsts means nothing is queued: skip the poll call.
        if self._dsts:
            self._transmit_next()
        else:
            self._busy = False

    def _deliver(self, packet: Packet, dst: "Node") -> None:
        self.in_transit -= 1
        self.bytes_delivered += packet.size
        self.packets_delivered += 1
        dst.receive(packet)
