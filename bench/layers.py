"""Isolated per-layer micro-benches, timed from outside the layer.

Each bench builds fresh state, times a fixed amount of work through a
layer's public calls with the layers above it stubbed by objects in
this file, checks the work was done, and returns ``(seconds, ops)``.
:func:`measure_layers` runs every bench for a fixed number of short
rounds and reports the median cost per operation.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import OUT, Spans, median
from workloads import JOBS, light_cells, pinned_sweep

from repro.apps.bulk import BulkSink, BulkTransfer
from repro.core import CongestionControl, make_cc
from repro.harness import (
    Cell,
    CellResult,
    ResultCache,
    RunReport,
    all_cells,
    build_document,
    cells_fingerprint,
    compute_src_hash,
    run_supervised,
)
from repro.harness.dist.master import run_distributed
from repro.metrics.flowstats import FlowStats
from repro.net.link import Channel, EthernetLan, VariableRateChannel
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.topology import Topology
from repro.net.traces import stepped_trace
from repro.sim.engine import Simulator
from repro.tcp.protocol import TCPProtocol
from repro.tcp.rtt import FineRttEstimator
from repro.tcp.sack import SackScoreboard
from repro.trace.records import Kind
from repro.trace.tracer import ConnectionTracer

#: Short rounds per micro-bench (process-spawning benches use fewer).
ROUNDS = 30
PROCESS_ROUNDS = 3

#: The arena roster: every distinct congestion-control algorithm.
SCHEMES = ("card", "dual", "newreno", "reno", "reno-sack", "tahoe",
           "tri-s", "vegas")

#: No-op cells for the harness transports (``dist_chaos/mode=ok``).
NOOP_CELLS = 40
CHAOS_MODULE = "repro.harness.dist.chaos"

Bench = Callable[[], Tuple[float, int]]


class BenchError(RuntimeError):
    """A micro-bench's own output check failed."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchError(message)


# ----------------------------------------------------------------------
# sim.engine
# ----------------------------------------------------------------------

_EVENTS = 10000


def dispatch_small() -> Tuple[float, int]:
    """32 self-rescheduling timers: the plain tuple heap, shallow."""
    sim = Simulator()

    def handled() -> None:
        sim.schedule(0.001, handled)

    def anonymous() -> None:
        sim.schedule_anon(0.001, anonymous)

    for i in range(16):
        sim.schedule(0.001 + i * 1e-5, handled)
        sim.schedule_anon(0.0015 + i * 1e-5, anonymous)
    start = time.perf_counter()
    done = sim.run(max_events=_EVENTS)
    elapsed = time.perf_counter() - start
    _check(done == _EVENTS and sim.far_events_peak == 0,
           "dispatch_small left the plain heap")
    return elapsed, done


def dispatch_large() -> Tuple[float, int]:
    """1000 live timers spread over a 20 s horizon: calendar engaged."""
    sim = Simulator()

    def tick(delay: float) -> None:
        sim.schedule(delay, tick, delay)

    for i in range(1000):
        delay = 0.05 + ((i * 7919) % 1000) * 0.01995
        sim.schedule(delay, tick, delay)
    start = time.perf_counter()
    done = sim.run(max_events=_EVENTS)
    elapsed = time.perf_counter() - start
    _check(done == _EVENTS and sim.far_events_peak > 0,
           "dispatch_large never parked a far event")
    return elapsed, done


def cancel_pattern() -> Tuple[float, int]:
    """A retransmit-style timer: cancel it, re-arm it, every millisecond."""
    sim = Simulator()
    armed: List[Any] = [None]
    fired = [0]

    def expire() -> None:
        fired[0] += 1

    def rearm() -> None:
        sim.cancel(armed[0])
        armed[0] = sim.schedule(1.0, expire)
        sim.schedule_anon(0.001, rearm)

    sim.schedule_anon(0.0, rearm)
    start = time.perf_counter()
    done = sim.run(max_events=5000)
    elapsed = time.perf_counter() - start
    _check(done == 5000 and fired[0] == 0, "a cancelled timer fired")
    return elapsed, done


# ----------------------------------------------------------------------
# net.link / net.queue
# ----------------------------------------------------------------------

class _Sink(Node):
    """Stands in for the node above a link: counts what arrives."""

    def __init__(self, sim: Simulator, name: str = "sink"):
        super().__init__(sim, name)
        self.got = 0

    def receive(self, packet: Packet) -> None:
        self.got += 1


_PACKETS = 3000
_PACKET_BYTES = 1000
_LINK_RATE = 1e6                       # bytes/s: 1 ms per packet
_BURST = 8


def _offer_bursts(sim: Simulator, send: Callable[[Packet], Any],
                  period: float) -> Tuple[float, int]:
    """Offer ``_PACKETS`` packets in bursts of ``_BURST`` every *period*."""
    packets = [Packet("a", "b", None, _PACKET_BYTES) for _ in range(_PACKETS)]
    cursor = [0]

    def burst() -> None:
        at = cursor[0]
        for packet in packets[at:at + _BURST]:
            send(packet)
        cursor[0] = at + _BURST
        if cursor[0] < _PACKETS:
            sim.schedule_anon(period, burst)

    sim.schedule_anon(0.0, burst)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, _PACKETS


def _channel_round(make_channel, capacity: Optional[int],
                   load: float) -> Tuple[float, int, DropTailQueue]:
    sim = Simulator()
    queue = DropTailQueue(capacity)
    channel = make_channel(sim, queue)
    sink = _Sink(sim)
    channel.dst = sink
    period = _BURST * _PACKET_BYTES / _LINK_RATE / load
    elapsed, offered = _offer_bursts(sim, channel.send, period)
    _check(sink.got + queue.dropped == offered, "channel lost a packet")
    return elapsed, offered, queue


def _static_channel(sim: Simulator, queue: DropTailQueue) -> Channel:
    return Channel(sim, _LINK_RATE, 0.01, queue)


def _variable_channel(sim: Simulator,
                      queue: DropTailQueue) -> VariableRateChannel:
    trace = stepped_trace([(0.05, 1.5 * _LINK_RATE), (0.05, 3 * _LINK_RATE)])
    return VariableRateChannel(sim, trace, 0.01, queue)


def channel_packets() -> Tuple[float, int]:
    elapsed, offered, queue = _channel_round(_static_channel, None, 1.0)
    _check(queue.dropped == 0, "unbounded channel dropped")
    return elapsed, offered


def varchannel_packets() -> Tuple[float, int]:
    elapsed, offered, queue = _channel_round(_variable_channel, None, 1.0)
    _check(queue.dropped == 0, "unbounded variable channel dropped")
    return elapsed, offered


def channel_drop_packets() -> Tuple[float, int, float]:
    """Offered twice the drain rate into ten buffers; exact drop share."""
    elapsed, offered, queue = _channel_round(_static_channel, 10, 2.0)
    return elapsed, offered, queue.dropped / offered


def lan_packets() -> Tuple[float, int]:
    sim = Simulator()
    lan = EthernetLan(sim, _LINK_RATE, 0.0001)
    source, sink = _Sink(sim, "a"), _Sink(sim, "b")
    lan.attach(source)
    lan.attach(sink)
    period = _BURST * _PACKET_BYTES / _LINK_RATE
    elapsed, offered = _offer_bursts(
        sim, lambda packet: lan.send(packet, sink), period)
    _check(sink.got == offered, "LAN lost a packet")
    return elapsed, offered


# ----------------------------------------------------------------------
# tcp.connection / tcp.protocol
# ----------------------------------------------------------------------

def _host_pair(sim: Simulator) -> Tuple[TCPProtocol, TCPProtocol]:
    """Two hosts on one fast lossless link, a TCP stack on each."""
    topo = Topology(sim)
    a, b = topo.add_host("a"), topo.add_host("b")
    topo.add_link(a, b, bandwidth=12.5e6, delay=0.001)
    topo.build_routes()
    return TCPProtocol(a), TCPProtocol(b)


def connection_segments() -> Tuple[float, int]:
    """1 MB over one pair, fixed 32-segment window, nothing lost."""
    sim = Simulator()
    client, server = _host_pair(sim)
    BulkSink(server, 7001, cc=lambda: CongestionControl(32))
    transfer = BulkTransfer(client, "b", 7001, 1 << 20,
                            cc=CongestionControl(32))
    start = time.perf_counter()
    sim.run(until=60.0)
    elapsed = time.perf_counter() - start
    stats = transfer.conn.stats
    _check(transfer.done and stats.retransmit_segments == 0,
           "lossless transfer did not complete cleanly")
    return elapsed, stats.segments_sent


def connection_open_close() -> Tuple[float, int]:
    """Handshake then immediate close, 200 connections opened together."""
    count = 200
    sim = Simulator()
    client, server = _host_pair(sim)
    server.listen(7002)
    closed = [0]

    def on_closed(conn) -> None:
        closed[0] += 1

    start = time.perf_counter()
    for _ in range(count):
        conn = client.connect("b", 7002)
        conn.on_established = lambda c: c.close()
        conn.on_closed = on_closed
    sim.run(until=30.0)
    elapsed = time.perf_counter() - start
    _check(closed[0] == count, "a connection did not close")
    return elapsed, count


def protocol_idle_1000() -> Bench:
    """1000 established idle connections: the periodic timer scans.

    Establishing them costs far more than a round, so the rounds are
    successive two-second windows of one simulation; each holds the
    same whole number of slow and fast ticks.
    """
    sim = Simulator()
    client, server = _host_pair(sim)
    server.listen(7003)
    conns = [client.connect("b", 7003) for _ in range(1000)]
    sim.run(until=5.0)
    _check(all(conn.stats.established_time is not None for conn in conns),
           "a connection did not establish")
    window = 2

    def bench() -> Tuple[float, int]:
        start = time.perf_counter()
        sim.run(until=sim.now + window)
        elapsed = time.perf_counter() - start
        _check(not any(conn.is_closed for conn in conns),
               "an idle connection closed")
        return elapsed, window

    return bench


# ----------------------------------------------------------------------
# core: per-ACK cost of each congestion-control scheme
# ----------------------------------------------------------------------

class _AckClockedSender:
    """The sender services a controller uses, driven by a fluid pipe.

    The pipe holds ``PIPE`` segments at the base RTT; flight above it
    queues and inflates the RTT sample, so delay-based schemes settle
    in their own steady state and loss-based ones sit at the peer
    window.  Nothing is ever lost: this prices the per-ACK bookkeeping
    of congestion avoidance, not recovery.
    """

    PIPE = 30
    BASE_RTT = 0.1

    def __init__(self) -> None:
        self.mss = 1024
        self.peer_wnd = 50 * 1024
        self.snd_una = 0
        self.snd_nxt = 0
        self.now = 0.0
        self.tracer = ConnectionTracer("bench", enabled=False)
        self.stats = FlowStats()
        self.fine_rtt = FineRttEstimator()
        self.sack_board = SackScoreboard()

    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def first_unacked_send_time(self) -> Optional[float]:
        return self.now - self.BASE_RTT if self.snd_nxt > self.snd_una else None

    def retransmit_first_unacked(self, reason: str = "fast") -> int:
        raise BenchError(f"lossless pipe asked to retransmit ({reason})")

    def retransmit_hole(self, seq: int, length: int, reason: str = "sack") -> None:
        raise BenchError(f"lossless pipe asked to repair a hole ({reason})")

    def run(self, cc: CongestionControl, acks: int) -> float:
        """Clock *acks* ACKs through *cc*; seconds spent."""
        cc.attach(self)
        cc.on_established(0.0)
        # The estimator is tcp.rtt's cost, not the controller's: it is
        # told the true base RTT once instead of every sample.
        self.fine_rtt.update(self.BASE_RTT)
        mss = self.mss
        stats = self.stats
        pipe_bytes = self.PIPE * mss
        step = self.BASE_RTT / self.PIPE
        self._fill(cc)
        start = time.perf_counter()
        for _ in range(acks):
            flight = self.snd_nxt - self.snd_una
            rtt = self.BASE_RTT * max(1.0, flight / pipe_bytes)
            self.now = now = self.now + step
            self.snd_una += mss
            stats.app_bytes_acked += mss
            cc.on_new_ack(mss, now, rtt)
            self._fill(cc)
        return time.perf_counter() - start

    def _fill(self, cc: CongestionControl) -> None:
        mss = self.mss
        window = min(cc.cwnd, self.peer_wnd)
        while self.snd_nxt - self.snd_una + mss <= window:
            seq = self.snd_nxt
            self.snd_nxt = end = seq + mss
            self.stats.bytes_sent_total += mss
            self.stats.segments_sent += 1
            cc.on_segment_sent(seq, mss, end, False, self.now)


_ACKS = 3000


def scheme_acks(name: str) -> Bench:
    def bench() -> Tuple[float, int]:
        sender = _AckClockedSender()
        elapsed = sender.run(make_cc(name), _ACKS)
        _check(sender.snd_una == _ACKS * sender.mss, "an ACK went missing")
        return elapsed, _ACKS
    return bench


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------

_RECORDS = 20000


def tracer_record() -> Tuple[float, int]:
    tracer = ConnectionTracer("bench")
    record = tracer.record
    start = time.perf_counter()
    for i in range(_RECORDS):
        record(i * 1e-3, Kind.CWND, i)
    elapsed = time.perf_counter() - start
    _check(len(tracer) == _RECORDS, "tracer dropped a record")
    return elapsed, _RECORDS


def tracer_rows() -> Tuple[float, int]:
    tracer = ConnectionTracer("bench")
    for i in range(_RECORDS):
        tracer.record(i * 1e-3, Kind.CWND, i)
    start = time.perf_counter()
    total = 0.0
    for _, _, a, _ in tracer.rows():
        total += a
    elapsed = time.perf_counter() - start
    _check(total == _RECORDS * (_RECORDS - 1) / 2, "tracer rows differ")
    return elapsed, _RECORDS


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

def registry_enumerate() -> Tuple[float, int]:
    start = time.perf_counter()
    keys = [cell.key for cell in all_cells(quick=True)]
    elapsed = time.perf_counter() - start
    _check(len(set(keys)) == len(keys) >= 66, "quick grid shrank")
    return elapsed, 1


def src_hash() -> Tuple[float, int]:
    start = time.perf_counter()
    digest = compute_src_hash()
    elapsed = time.perf_counter() - start
    _check(len(digest) == 64, "source hash malformed")
    return elapsed, 1


def _light_report() -> RunReport:
    """The 46 light cells with their committed baseline metrics."""
    cells = light_cells(0)
    by_key = pinned_sweep(cells)
    return RunReport(
        results=[CellResult(cell, by_key[cell.key], 0.1) for cell in cells],
        cache_misses=len(cells), jobs=JOBS)


class _CacheBench:
    """put, get-hit and get-miss against one fresh on-disk cache."""

    def __init__(self, report: RunReport) -> None:
        self.root = OUT / "tmp" / f"layers-cache-{os.getpid()}"
        self.report = report

    def _fresh(self) -> ResultCache:
        shutil.rmtree(self.root, ignore_errors=True)
        return ResultCache(self.root, "0" * 64)

    def _fill(self, cache: ResultCache) -> None:
        for result in self.report.results:
            cache.put(result.key, {"metrics": result.metrics,
                                   "wall_clock_s": result.wall_clock_s})

    def put(self) -> Tuple[float, int]:
        cache = self._fresh()
        start = time.perf_counter()
        self._fill(cache)
        return time.perf_counter() - start, len(self.report.results)

    def get_hit(self) -> Tuple[float, int]:
        cache = self._fresh()
        self._fill(cache)
        start = time.perf_counter()
        hits = [cache.get(result.key) for result in self.report.results]
        elapsed = time.perf_counter() - start
        _check(all(hit["metrics"] == result.metrics for hit, result
                   in zip(hits, self.report.results)), "cache hit differs")
        return elapsed, len(hits)

    def get_miss(self) -> Tuple[float, int]:
        cache = self._fresh()
        start = time.perf_counter()
        misses = [cache.get(result.key) for result in self.report.results]
        elapsed = time.perf_counter() - start
        _check(not any(misses), "empty cache served a hit")
        return elapsed, len(misses)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def artifact_benches(report: RunReport) -> Tuple[Bench, Bench]:
    doc = build_document(report, "quick", "0" * 64)
    want = cells_fingerprint(doc)

    def build() -> Tuple[float, int]:
        start = time.perf_counter()
        built = build_document(report, "quick", "0" * 64)
        elapsed = time.perf_counter() - start
        _check(len(built["cells"]) == len(report.results),
               "document lost a cell")
        return elapsed, 1

    def fingerprint() -> Tuple[float, int]:
        start = time.perf_counter()
        got = cells_fingerprint(doc)
        elapsed = time.perf_counter() - start
        _check(got == want, "fingerprint unstable")
        return elapsed, 1

    return build, fingerprint


def _noop_cells(count: int) -> List[Cell]:
    return [Cell.make("dist_chaos", mode="ok", seed=seed)
            for seed in range(count)]


def _settled(outcome, count: int) -> None:
    successes, failures, interrupted = outcome
    _check(len(successes) == count and not failures and not interrupted,
           "a no-op cell did not settle")


def supervisor_noop() -> Tuple[float, int]:
    """Worker-seconds per no-op cell on the local supervised pool."""
    cells = _noop_cells(NOOP_CELLS)
    start = time.perf_counter()
    outcome = run_supervised(cells, jobs=JOBS, timeout_s=120.0)
    elapsed = time.perf_counter() - start
    _settled(outcome, NOOP_CELLS)
    return elapsed * JOBS, NOOP_CELLS


def _dist_wall(count: int) -> float:
    cells = _noop_cells(count)
    start = time.perf_counter()
    outcome = run_distributed(cells, timeout_s=120.0, workers=JOBS,
                              preload=[CHAOS_MODULE])
    elapsed = time.perf_counter() - start
    _settled(outcome, count)
    return elapsed


def dist_startup() -> Tuple[float, int]:
    """Spawn workers, hello, one grant, shutdown: one-cell wall."""
    return _dist_wall(1), 1


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def _per_op(spans: Spans, name: str, bench: Callable[[], tuple],
            rounds: int) -> Tuple[float, List[tuple]]:
    """Median seconds per operation over *rounds* runs of *bench*."""
    outcomes = []
    with spans.span(name, rounds=rounds):
        for _ in range(rounds):
            outcomes.append(bench())
    return median([out[0] / out[1] for out in outcomes]), outcomes


def measure_layers(spans: Spans, rounds: int = ROUNDS,
                   process_rounds: int = PROCESS_ROUNDS) -> Dict[str, tuple]:
    """Every isolated per-layer metric as ``name -> (value, unit)``."""
    import repro.harness.dist.chaos  # noqa: F401  registers dist_chaos

    out: Dict[str, tuple] = {}
    spans.new_round()

    def timed(name: str, bench: Bench, scale: float, unit: str,
              n: int = rounds) -> float:
        per_op, _ = _per_op(spans, name, bench, n)
        out[name] = (per_op * scale, unit)
        return per_op

    timed("sim.engine.dispatch_ns_small", dispatch_small, 1e9, "ns")
    timed("sim.engine.dispatch_ns_large", dispatch_large, 1e9, "ns")
    timed("sim.engine.cancel_ns", cancel_pattern, 1e9, "ns")

    timed("net.link.channel_pkt_ns", channel_packets, 1e9, "ns")
    per_op, outcomes = _per_op(spans, "net.link.channel_drop_pkt_ns",
                               channel_drop_packets, rounds)
    out["net.link.channel_drop_pkt_ns"] = (per_op * 1e9, "ns")
    shares = {outcome[2] for outcome in outcomes}
    _check(len(shares) == 1, "drop share differs between rounds")
    out["net.queue.drop_share"] = (shares.pop(), "share")
    timed("net.link.lan_pkt_ns", lan_packets, 1e9, "ns")
    timed("net.link.varchannel_pkt_ns", varchannel_packets, 1e9, "ns")

    timed("tcp.connection.seg_ns", connection_segments, 1e9, "ns")
    timed("tcp.connection.open_close_us", connection_open_close, 1e6, "us")
    timed("tcp.protocol.idle_1000_us_per_sim_s", protocol_idle_1000(), 1e6,
          "us/sim_s")

    # Each scheme's cost is what it adds over the fixed-window base
    # controller driven by the same sender, so the stub's own
    # bookkeeping cancels out of the Vegas/Reno comparison.  The schemes
    # take turns within each round, so a slow spell on the host falls on
    # all of them alike.
    benches = {name: scheme_acks(name) for name in ("fixed",) + SCHEMES}
    samples: Dict[str, List[float]] = {name: [] for name in benches}
    with spans.span("core.ack_ns", rounds=rounds):
        for _ in range(rounds):
            for name, bench in benches.items():
                elapsed, acks = bench()
                samples[name].append(elapsed / acks)
    added = {name: median(samples[name]) - median(samples["fixed"])
             for name in SCHEMES}
    for name, cost in added.items():
        out[f"core.{name}.ack_ns"] = (cost * 1e9, "ns")
    out["core.vegas_over_reno_ack"] = (added["vegas"] / added["reno"], "ratio")

    timed("trace.tracer.record_ns", tracer_record, 1e9, "ns")
    per_row, _ = _per_op(spans, "trace.tracer.rows_per_s", tracer_rows, rounds)
    out["trace.tracer.rows_per_s"] = (1.0 / per_row, "rows/s")

    timed("harness.registry.enumerate_ms", registry_enumerate, 1e3, "ms")
    report = _light_report()
    cache = _CacheBench(report)
    try:
        timed("harness.cache.get_hit_us", cache.get_hit, 1e6, "us")
        timed("harness.cache.get_miss_us", cache.get_miss, 1e6, "us")
        timed("harness.cache.put_us", cache.put, 1e6, "us")
    finally:
        cache.close()
    build, fingerprint = artifact_benches(report)
    timed("harness.artifacts.build_ms", build, 1e3, "ms")
    timed("harness.artifacts.fingerprint_ms", fingerprint, 1e3, "ms")
    timed("harness.cache.src_hash_ms", src_hash, 1e3, "ms")

    timed("harness.supervisor.noop_cell_ms", supervisor_noop, 1e3, "ms",
          n=process_rounds)
    startup = timed("harness.dist.startup_ms", dist_startup, 1e3, "ms",
                    n=process_rounds)
    # Marginal worker-seconds per cell once the workers are up.
    with spans.span("harness.dist.noop_cell_ms", rounds=process_rounds):
        full = median([_dist_wall(NOOP_CELLS) for _ in range(process_rounds)])
    out["harness.dist.noop_cell_ms"] = (
        (full - startup) * JOBS / (NOOP_CELLS - 1) * 1e3, "ms")
    return out
