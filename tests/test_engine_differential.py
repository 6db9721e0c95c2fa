"""Property-based engine differential: production ≡ reference.

The production engine — tuple heap, anonymous entries, event free
list, the far-horizon calendar, batched counters — must be
*bit-identical* in observable behaviour to the deliberately naive
object-heap scheduler in ``tests/reference_engine.py``.  This suite is
the property-level half of that gate (the quick sweep vs
``baselines/expected.json`` is the other): Hypothesis drives random
scenarios through three modes in-process and asserts identical
fingerprints:

* ``production`` — :class:`repro.sim.engine.Simulator` as shipped;
* ``calendar``   — the same class with the module constants
  ``_WHEEL_THRESHOLD``/``_WHEEL_WIDTH`` patched to 0 / 0.25 s: every
  far event parks, exercising epoch advancement and bucket merges
  constantly;
* ``reference``  — ``ReferenceSimulator``, constructed directly for
  scheduler-only scenarios and substituted at
  ``repro.experiments.figure5.Simulator`` for full-stack ones.

``far_events_peak`` is deliberately excluded from every fingerprint:
the reference never parks events, so calendar occupancy is the one
counter allowed to differ by design.

Three scenario families:

1. **Event soups** — random nested scheduling programs mixing
   ``schedule`` / ``schedule_anon`` / ``schedule_at`` and handle
   cancellations, with near and far-horizon delays.  Pure scheduler
   differential, no protocol stack.
2. **Traced solo transfers** — one bulk transfer with a
   :class:`ConnectionTracer` attached, under a random fault profile;
   every tracer row must match exactly.
3. **Many-flows populations** — 2–64 tcplib conversations over the
   Figure-5 bottleneck, random seeds and fault profiles, compared down
   to per-connection final stats.
"""

import contextlib
import random as pyrandom
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import figure5
from repro.sim import engine, observers
from repro.sim.engine import Simulator

from reference_engine import ReferenceSimulator

#: Mode -> (simulator class, engine module constants patched for it).
MODES = {
    "production": (Simulator, {}),
    "calendar": (Simulator, {"_WHEEL_THRESHOLD": 0, "_WHEEL_WIDTH": 0.25}),
    "reference": (ReferenceSimulator, {}),
}

#: Fault profiles drawn per example (None = clean network).
FAULT_PROFILES = (None, "light", "heavy", "flap")


class _Factory:
    """Builds one mode's simulators and remembers the latest."""

    def __init__(self, cls):
        self.cls = cls
        self.last = None

    def __call__(self):
        self.last = self.cls()
        return self.last


def _replay(fingerprint_fn):
    """Run *fingerprint_fn(make_sim)* under every mode; assert all agree.

    ``make_sim`` is the mode's simulator factory — also what
    ``build_figure5`` constructs while the mode is in force — and
    ``make_sim.last`` the simulator it built most recently.
    """
    prints = {}
    for mode, (cls, constants) in MODES.items():
        make_sim = _Factory(cls)
        with pytest.MonkeyPatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(engine, name, value)
            patch.setattr(figure5, "Simulator", make_sim)
            prints[mode] = fingerprint_fn(make_sim)
    assert prints["production"] == prints["reference"], \
        "production engine diverged from the reference"
    assert prints["calendar"] == prints["reference"], \
        "forced calendar diverged from the reference"
    return prints


class TestEventSoupOrder:
    """Random scheduling programs fire in identical order everywhere."""

    @staticmethod
    def _run_soup(make_sim, program_seed: int, seeds: int, budget: int,
                  observe=None):
        sim = make_sim()
        rng = pyrandom.Random(program_seed)
        fired = []
        live = {}          # handle id -> Event, removed when it fires
        remaining = [budget]
        next_id = [0]

        def spawn():
            # Mix of near-term and far-horizon delays so the forced
            # calendar parks constantly while the heap still churns.
            delay = rng.random() * (20.0 if rng.random() < 0.3 else 0.05)
            if rng.random() < 0.2:
                # A coarse grid (zero included) so equal timestamps
                # occur and the insertion-order tie-break is on trial.
                delay = rng.randrange(4) * 0.01
            kind = rng.randrange(3)
            tag = rng.randrange(10_000)
            if kind == 0:
                sim.schedule_anon(delay, fire, tag)
            elif kind == 1:
                hid = next_id[0] = next_id[0] + 1
                live[hid] = sim.schedule(delay, fire, tag, hid)
            else:
                hid = next_id[0] = next_id[0] + 1
                live[hid] = sim.schedule_at(sim.now + delay, fire, tag, hid)

        def fire(tag, hid=None):
            if observe is not None:
                observe(sim)
            if hid is not None:
                live.pop(hid, None)
            fired.append((sim.now, tag))
            # One successor, sometimes two: cancellations below kill
            # chains, so without the occasional fork a soup dies out
            # after a few dozen events.
            for _ in range(1 + (rng.random() < 0.3)):
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
                spawn()
            # Occasionally cancel a random still-pending handle (a
            # handle is only valid until it fires — `live` tracks
            # exactly that window).
            if live and rng.random() < 0.25:
                keys = list(live)
                sim.cancel(live.pop(keys[rng.randrange(len(keys))]))

        for _ in range(seeds):
            fire(rng.randrange(10_000))
        sim.run()
        return sim.events_processed, tuple(fired)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program_seed=st.integers(0, 2**32 - 1),
           seeds=st.integers(1, 12),
           budget=st.integers(0, 300))
    def test_dispatch_order_identical(self, program_seed, seeds, budget):
        _replay(lambda make_sim: self._run_soup(make_sim, program_seed,
                                                seeds, budget))

    @settings(max_examples=20, deadline=None)
    @given(program_seed=st.integers(0, 2**32 - 1),
           seeds=st.integers(1, 12),
           budget=st.integers(0, 300))
    def test_observer_reads_exact_counters(self, program_seed, seeds,
                                           budget):
        """Counters are exact whenever an observer can look.

        The production loop keeps ``events_processed`` on a local
        between observer calls and derives ``pending_events`` from the
        queue lengths and its count of queued cancelled entries; the
        reference recomputes both from its heap.  What an observer
        reads at every ``on_event`` must be what the reference holds
        on entry to the same callback.
        """
        class Recorder(observers.Instrument):
            def __init__(self):
                self.seen = []

            def on_event(self, sim, fn):
                self.seen.append((sim.events_processed, sim.pending_events))

        recorder = Recorder()
        with observers.armed(gauges=recorder):
            self._run_soup(Simulator, program_seed, seeds, budget)
        expected = []
        # The seeding calls to fire() run before the simulator does.
        self._run_soup(
            ReferenceSimulator, program_seed, seeds, budget,
            observe=lambda sim: expected.append(
                (sim.events_processed, sim.pending_events)))
        assert recorder.seen == expected[seeds:]


class TestTracedTransferDifferential:
    """A traced bulk transfer leaves identical rows on every path."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16),
           cc=st.sampled_from(("reno", "vegas-1,3")),
           faults=st.sampled_from(FAULT_PROFILES))
    def test_tracer_rows_identical(self, seed, cc, faults):
        from repro.experiments.transfers import run_solo_transfer
        from repro.faults import injecting
        from repro.trace.tracer import ConnectionTracer
        from repro.units import kb

        def fingerprint(make_sim):
            tracer = ConnectionTracer("diff")
            ctx = injecting(faults) if faults else contextlib.nullcontext()
            with ctx:
                result = run_solo_transfer(cc, size=kb(64), buffers=10,
                                           seed=seed, tracer=tracer)
            return (make_sim.last.events_processed,
                    tuple(tracer.rows()),
                    result.throughput_kbps,
                    result.retransmitted_kb,
                    result.coarse_timeouts)

        _replay(fingerprint)


class TestManyFlowsDifferential:
    """2–64 tcplib conversations: identical down to per-flow stats."""

    @staticmethod
    def _population_fingerprint(flows: int, seed: int, cc: str,
                                faults):
        from repro.experiments.many_flows import HOST_PAIRS
        from repro.experiments.transfers import resolve_cc
        from repro.faults import injecting
        from repro.trafficgen.conversations import Conversation

        # A conversation lets go of an endpoint once it closes, and the
        # generator of a spent conversation; keep every endpoint opened
        # here, by conversation in opening order, so all are compared.
        opened = {}
        real_open = Conversation._open

        def keeping_open(conv, port, **options):
            conn = real_open(conv, port, **options)
            opened.setdefault(conv, []).append(conn)
            return conn

        ctx = injecting(faults) if faults else contextlib.nullcontext()
        with ctx, mock.patch.object(Conversation, "_open", keeping_open):
            net = figure5.build_figure5(buffers=10, seed=seed)
            factory = resolve_cc(cc)
            share, extra = divmod(flows, len(HOST_PAIRS))
            generators = []
            for idx, (src, dst) in enumerate(HOST_PAIRS):
                quota = share + (1 if idx < extra else 0)
                if quota == 0:
                    continue
                generators.append(net.start_traffic(
                    src, dst, factory, stream=f"engine-diff-{idx}",
                    arrival_mean=1.5 / quota, quota=quota))
            net.sim.run(until=4.0)
            for gen in generators:
                gen.stop()

        per_conn = []
        for conv, conns in opened.items():
            for conn in conns:
                stats = conn.stats
                per_conn.append((
                    conv.kind, conv.finished,
                    conn.snd_una, conn.snd_nxt,
                    stats.app_bytes_acked, stats.retransmitted_bytes,
                    stats.fast_retransmits, stats.fine_retransmits,
                    stats.rtt_samples, stats.rtt_min,
                    stats.last_ack_time,
                ))
        return net.sim.events_processed, net.sim.now, tuple(per_conn)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(flows=st.integers(2, 64),
           seed=st.integers(0, 2**16),
           cc=st.sampled_from(("reno", "vegas-1,3")),
           faults=st.sampled_from(FAULT_PROFILES))
    def test_population_identical(self, flows, seed, cc, faults):
        _replay(lambda make_sim: self._population_fingerprint(
            flows, seed, cc, faults))

    def test_thousand_flow_cell_matches_slowpath(self):
        """The headline 1,000-flow bench cell, once, against the slow
        path — the reference engine.

        Too heavy for a Hypothesis example but exactly the population
        the calendar exists for, so pin it explicitly, down to the
        numbers ``bench/expected.json`` holds for the cell.  The
        ``far_events_peak`` field is stripped before comparing: the
        reference never parks events.
        """
        from repro.experiments.many_flows import many_flows_metrics

        peaks = []  # one per mode, in MODES order

        def fingerprint(make_sim):
            metrics = dict(many_flows_metrics(1000, 0))
            peaks.append(metrics.pop("far_events_peak"))
            metrics["events"] = make_sim.last.events_processed
            return metrics

        prints = _replay(fingerprint)
        assert prints["production"]["events"] == 99_847
        # The forced calendar must really have parked more than the
        # stock threshold does, or the middle mode tested nothing.
        assert peaks[0] == 335 and peaks[1] > 335 and peaks[2] == 0
