"""Per-connection statistics.

Every TCP connection owns a :class:`FlowStats` that the endpoint
updates as it runs.  These are the quantities the paper's tables
report: throughput in KB/s, kilobytes retransmitted, and the number of
coarse-grained timeouts, plus supporting detail (segment counts, RTT
sample extremes) used by the analysis modules.
"""

from __future__ import annotations

from typing import Optional

from repro.units import bytes_to_kb, rate_kbps


class FlowStats:
    """Mutable statistics for one TCP connection (sender perspective).

    A plain slotted class (one per endpoint, thousands per tcplib
    world); the slots group as ``__init__`` does.
    """

    __slots__ = (
        "open_time", "established_time", "first_send_time",
        "last_ack_time", "close_time",
        "app_bytes_queued", "app_bytes_acked",
        "bytes_sent_total", "segments_sent", "retransmitted_bytes",
        "retransmit_segments",
        "acks_received", "dup_acks_received", "bytes_received",
        "coarse_timeouts", "fast_retransmits", "fine_retransmits",
        "persist_probes",
        "rtt_samples", "rtt_min", "rtt_max", "rtt_sum",
    )

    def __init__(self) -> None:
        # Lifecycle timestamps (simulated seconds; None until they happen).
        self.open_time: Optional[float] = None
        self.established_time: Optional[float] = None
        self.first_send_time: Optional[float] = None
        self.last_ack_time: Optional[float] = None
        self.close_time: Optional[float] = None

        # Application data accounting.
        self.app_bytes_queued = 0
        self.app_bytes_acked = 0

        # Wire accounting (payload bytes; headers excluded).
        self.bytes_sent_total = 0
        self.segments_sent = 0
        self.retransmitted_bytes = 0
        self.retransmit_segments = 0

        # ACK-side accounting.
        self.acks_received = 0
        self.dup_acks_received = 0
        self.bytes_received = 0

        # Loss-recovery events.
        self.coarse_timeouts = 0
        self.fast_retransmits = 0
        self.fine_retransmits = 0

        # Zero-window persist probes sent (1-byte forced sends).
        self.persist_probes = 0

        # RTT samples (fine-grained, seconds).
        self.rtt_samples = 0
        self.rtt_min: Optional[float] = None
        self.rtt_max: Optional[float] = None
        self.rtt_sum = 0.0

    def note_rtt(self, sample: float) -> None:
        """Record a fine-grained RTT sample."""
        self.rtt_samples += 1
        self.rtt_sum += sample
        if self.rtt_min is None or sample < self.rtt_min:
            self.rtt_min = sample
        if self.rtt_max is None or sample > self.rtt_max:
            self.rtt_max = sample

    @property
    def rtt_mean(self) -> Optional[float]:
        if self.rtt_samples == 0:
            return None
        return self.rtt_sum / self.rtt_samples

    # ------------------------------------------------------------------
    # Derived paper metrics
    # ------------------------------------------------------------------
    @property
    def transfer_seconds(self) -> Optional[float]:
        """Elapsed time from connection open to the last new ACK."""
        if self.open_time is None or self.last_ack_time is None:
            return None
        return self.last_ack_time - self.open_time

    def throughput_kbps(self) -> float:
        """Goodput in KB/s over the transfer: acked app bytes / elapsed.

        This matches the paper's definition: useful data delivered per
        unit time, retransmissions not double-counted.
        """
        elapsed = self.transfer_seconds
        if elapsed is None:
            return 0.0
        return rate_kbps(self.app_bytes_acked, elapsed)

    def retransmitted_kb(self) -> float:
        """Kilobytes retransmitted, the paper's loss metric."""
        return bytes_to_kb(self.retransmitted_bytes)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (f"{self.throughput_kbps():.1f} KB/s, "
                f"{self.retransmitted_kb():.1f} KB retransmitted, "
                f"{self.coarse_timeouts} coarse timeouts")
