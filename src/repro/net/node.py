"""Network nodes: hosts and routers.

A :class:`Host` terminates transport connections — its received
packets are handed to the attached transport protocol (TCP).  A
:class:`Router` forwards packets by destination address using a static
forwarding table computed when the topology is built.  Routers are the
paper's "abstract entity that supports a particular queuing
discipline": the FIFO buffering happens in the egress queues of the
router's outgoing links.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.net.link import Port
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class Node:
    """Base class for anything attached to links."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        # destination host name -> (port, next hop node, bound
        # port.transmit).  The bound method is stored alongside so the
        # per-packet forwarding path skips one attribute lookup.
        self.forwarding: Dict[str, Tuple[Port, "Node", Callable]] = {}

    def add_port(self, port: Port) -> None:
        self.ports.append(port)

    def neighbors(self) -> List["Node"]:
        """All directly connected nodes, over every port."""
        result: List["Node"] = []
        for port in self.ports:
            result.extend(port.neighbors())
        return result

    def install_route(self, dst: str, port: Port, next_node: "Node") -> None:
        self.forwarding[dst] = (port, next_node, port.transmit)

    def forward(self, packet: Packet) -> bool:
        """Send *packet* toward its destination via the forwarding table."""
        entry = self.forwarding.get(packet.dst)
        if entry is None:
            raise RoutingError(f"{self.name}: no route to {packet.dst}")
        return entry[2](packet, entry[1])

    def receive(self, packet: Packet) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Host(Node):
    """An end host running a transport protocol stack.

    The transport protocol registers itself by assigning
    :attr:`protocol_handler`; every packet addressed to this host is
    delivered there.  Packets for other hosts arriving at a host are
    counted and discarded (hosts do not forward).
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.protocol_handler: Optional[Callable[[Packet], None]] = None
        self.packets_sent = 0
        self.bytes_sent = 0
        self.misdelivered = 0

    def send_packet(self, packet: Packet) -> bool:
        """Inject a locally generated packet into the network."""
        self.packets_sent += 1
        self.bytes_sent += packet.size
        if packet.dst == self.name:
            # Loopback: deliver immediately without touching the wire.
            self.sim.schedule_anon(0.0, self.receive, packet)
            return True
        return self.forward(packet)

    def receive(self, packet: Packet) -> None:
        if packet.dst != self.name:
            self.misdelivered += 1
            return
        if self.protocol_handler is not None:
            self.protocol_handler(packet)


class Router(Node):
    """A store-and-forward router with static routes.

    Forwarding itself is instantaneous (the paper's abstract router);
    all delay and loss come from the egress link queues.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.packets_forwarded = 0
        self.no_route_drops = 0

    def receive(self, packet: Packet) -> None:
        entry = self.forwarding.get(packet.dst)
        if entry is None:
            self.no_route_drops += 1
            return
        self.packets_forwarded += 1
        entry[2](packet, entry[1])
