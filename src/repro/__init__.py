"""repro — a reproduction of *TCP Vegas: New Techniques for Congestion
Detection and Avoidance* (Brakmo, O'Malley & Peterson, SIGCOMM 1994).

The package is a packet-level discrete-event network simulator with a
full BSD-style TCP implementation whose sender-side congestion control
is pluggable.  It ships the paper's contribution (:class:`VegasCC`),
the Reno/Tahoe baselines, the prior delay-based schemes the paper
discusses (DUAL, CARD, Tri-S), the tcplib-style TRAFFIC workload
generator, the trace facility behind the paper's graphs, and drivers
for every table and figure in the evaluation.

Quickstart::

    from repro import Simulator, Topology, TCPProtocol, VegasCC
    from repro.apps import BulkSink, BulkTransfer
    from repro.units import kbps, mb, ms

    sim = Simulator()
    topo = Topology(sim)
    a, b = topo.add_host("A"), topo.add_host("B")
    r1, r2 = topo.add_router("R1"), topo.add_router("R2")
    topo.add_lan([a, r1]); topo.add_lan([r2, b])
    topo.add_link(r1, r2, bandwidth=kbps(200), delay=ms(50),
                  queue_capacity=10)
    topo.build_routes()
    sender, receiver = TCPProtocol(a), TCPProtocol(b)
    BulkSink(receiver, 7001)
    transfer = BulkTransfer(sender, "B", 7001, mb(1), cc=VegasCC())
    sim.run(until=60)
    print(transfer.conn.stats.summary())
"""

import importlib
from typing import Any, Callable, Dict, List, Tuple

#: Public name -> the module that defines it.  Names resolve on first
#: access (PEP 562), so ``import repro.harness`` -- and with it every
#: cache-served sweep -- never loads the simulator.
_EXPORTS = {
    "CardCC": "repro.core",
    "CongestionControl": "repro.core",
    "DualCC": "repro.core",
    "RenoCC": "repro.core",
    "TahoeCC": "repro.core",
    "TriSCC": "repro.core",
    "VegasCC": "repro.core",
    "make_cc": "repro.core",
    "FlowStats": "repro.metrics",
    "jain_fairness_index": "repro.metrics",
    "Topology": "repro.net",
    "Simulator": "repro.sim",
    "TCPConnection": "repro.tcp",
    "TCPProtocol": "repro.tcp",
    "ConnectionTracer": "repro.trace",
    "RouterTracer": "repro.trace",
    "build_trace_graph": "repro.trace",
}

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "Topology",
    "TCPProtocol",
    "TCPConnection",
    "CongestionControl",
    "RenoCC",
    "TahoeCC",
    "VegasCC",
    "DualCC",
    "CardCC",
    "TriSCC",
    "make_cc",
    "FlowStats",
    "jain_fairness_index",
    "ConnectionTracer",
    "RouterTracer",
    "build_trace_graph",
    "__version__",
]


def _lazy_exports(namespace: Dict[str, Any], exports: Dict[str, str],
                  ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose public
    names are *exports* (name -> defining module): each name is
    imported on first access and is a plain attribute after that."""

    def __getattr__(name: str) -> Any:
        home = exports.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(home), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
