"""Figure 4 and the ablations of the three §3.1–3.3 techniques.

:data:`ABLATION_SCHEMES` names the variants: a threshold band
(``vegas-6,10``), Vegas without modified slow start (``vegas-noss``)
or fine retransmit (``vegas-nofine``), and Vegas with BaseRTT pinned
at a multiple of the true minimum (``vegas-base1.8``, §6); any other
name is a :mod:`repro.core.registry` scheme.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.core.registry import cc_factory
from repro.core.vegas import VegasCC
from repro.experiments.figure5 import build_figure5
from repro.experiments.transfers import TransferResult


class PinnedBaseRttVegas(VegasCC):
    """Vegas with BaseRTT forced to *scale* times the true minimum.

    The pin is re-applied on every ACK from the minimum sample seen so
    far, so neither the estimator's min-tracking nor CAM's own BaseRTT
    reset can undo the injected mis-estimate.
    """

    def __init__(self, scale: float):
        super().__init__()
        self.scale = scale
        self._true_min = None

    def on_new_ack(self, acked_bytes, now, rtt_sample):
        if rtt_sample is not None and (self._true_min is None
                                       or rtt_sample < self._true_min):
            self._true_min = rtt_sample
        if self._true_min is not None:
            self.conn.fine_rtt.set_base_rtt(self._true_min * self.scale)
        super().on_new_ack(acked_bytes, now, rtt_sample)


#: The variants the ablations name beyond :mod:`repro.core.registry`.
ABLATION_SCHEMES: Dict[str, Callable[[], VegasCC]] = {
    "vegas-1,2": lambda: VegasCC(alpha=1.0, beta=2.0),
    "vegas-4,6": lambda: VegasCC(alpha=4.0, beta=6.0),
    "vegas-6,10": lambda: VegasCC(alpha=6.0, beta=10.0),
    "vegas-noss": lambda: VegasCC(alpha=1, beta=3,
                                  enable_modified_slowstart=False),
    "vegas-nofine": lambda: VegasCC(enable_fine_retransmit=False),
    **{f"vegas-base{scale:g}": partial(PinnedBaseRttVegas, scale)
       for scale in (0.5, 0.8, 1.0, 1.3, 1.8)},
}


def ablation_cc(scheme: str) -> Callable:
    """The controller factory an ablation scheme name stands for."""
    return ABLATION_SCHEMES.get(scheme) or cc_factory(scheme)


def double_loss(scheme: str, seed: int = 3) -> Dict[str, float]:
    """Figure 4: the first two data segments offered to the bottleneck
    after t = 2.6 s of a 128 KB, 6 KB-window transfer are dropped — the
    multi-drop case §3.1's fine-grained retransmit repairs and Reno
    recovers only by a coarse timeout."""
    net = build_figure5(buffers=30, seed=seed)
    BulkSink(net.protocol("Host1b"), 7001)
    transfer = BulkTransfer(net.protocol("Host1a"), "Host1b", 7001,
                            128 * 1024, cc=ablation_cc(scheme)(),
                            sndbuf=6 * 1024, rcvbuf=6 * 1024)
    queue = net.forward_queue
    original = queue.offer
    drops = []

    def lossy(packet, now):
        if (len(drops) < 2 and now > 2.6
                and packet.src == "Host1a" and packet.size > 500):
            drops.append(now)
            return False
        return original(packet, now)

    queue.offer = lossy
    net.sim.run(until=120.0)
    return {**transfer_metrics(TransferResult.from_transfer(transfer)),
            "drops": len(drops)}


def transfer_metrics(result: TransferResult) -> Dict[str, float]:
    """A transfer's table metrics plus how it retransmitted."""
    return {**result.metrics(),
            "done": float(result.done),
            "transfer_s": result.duration or 0.0,
            "fast_retransmits": result.fast_retransmits,
            "fine_retransmits": result.fine_retransmits}
