"""Discrete-event simulation engine.

A classic event-heap scheduler: callbacks scheduled at absolute
simulated times, ties broken by insertion order, so runs are fully
deterministic.  The x-kernel simulator the paper used worked the same
way: real protocol code driven by a virtual clock.

Typical use::

    sim = Simulator()
    sim.schedule(1.0, lambda: print("one second in"))
    sim.run(until=10.0)

Components keep a reference to their :class:`Simulator` and use its
``schedule*`` methods for everything time-related: link transmission
completions, protocol timers, application send times.

One engine
----------

Every event enters through :meth:`Simulator._push` and leaves through
:meth:`Simulator._dispatch`; there is no mode switch.  Millions of
events per run make the constant factors dominate wall clock, so:

* the heap holds ``(time, seq, event)`` tuples — ``heapq`` compares C
  tuples, and ``seq`` is unique, so a comparison never reaches the
  event object;
* handle-less events (:meth:`Simulator.schedule_anon`) are bare
  ``(time, seq, fn, args)`` tuples, with no :class:`Event` at all —
  only timers that may be cancelled (periodic timers, samplers,
  pacing) take a handle, about one push in a hundred;
* the engine keeps no live-event count on the hot path:
  :attr:`Simulator.pending_events` is derived on demand from the
  queue lengths and the number of cancelled entries still queued.

The entry format and the parking rule below are private to this
module; other layers use the public methods only, which is what lets
``tests/reference_engine.py`` — the seed's object-heap scheduler, kept
deliberately naive — stand in for this class under the whole stack as
the oracle of ``tests/test_engine_differential.py``.

Observers: whichever instruments are armed in
:mod:`repro.sim.observers` when a simulator is built (invariant
checker, fault session, liveness watchdog, telemetry gauges, perf
probe) register with it, and are called as ``on_event(sim, fn)`` just
before each dispatch and ``on_run_end(sim)`` when ``run()`` returns.
They read state and never schedule, so ``events_processed`` is
identical however many are armed; with none, the loop pays one
truthiness test per event.

Far-horizon calendar overflow
-----------------------------

A binary heap suits the dense near-term event population (packet
transmissions, deliveries), but thousand-flow runs also carry
thousands of *far* events — conversation start times and think-time
timers seconds in the future — and every one of them inflates each
``heappush``/``heappop`` along the way.  Above a heap-length threshold
the engine therefore parks far events in calendar buckets (one
unsorted list per ``_WHEEL_WIDTH``-second epoch) and only heapifies a
bucket when the heap drains down to it: O(1) insertion for the far
population, and the heap stays sized to the near-term burst.

Ordering stays bit-identical to the pure heap by construction, via
two complementary rules.  An entry may *start* a bucket ``e`` only
when ``e`` lies strictly beyond both the currently loaded epoch and
``_heap_max`` — the largest timestamp ever pushed onto the heap since
it last drained — so every heap entry sorts before every parked
entry.  And once any bucket is populated, every new event at or past
the lowest nonempty bucket's boundary (``_far_bound``) *must* park
rather than enter the heap, so the heap can never leapfrog a parked
entry.  Buckets are merged back through ``heapify``, where ``(time,
seq)`` uniqueness restores the exact global order.  Below the
threshold (every quick-sweep cell) no event is ever parked.  The
differential suite patches ``_WHEEL_THRESHOLD`` to zero so every far
event parks, and cross-checks dispatch order against the reference.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim import observers

#: What :func:`last_simulator` returns.
_last_simulator: Optional["Simulator"] = None

_INF = float("inf")

#: Heap length above which far events overflow into calendar buckets;
#: small cells (the whole quick sweep) never cross it.
_WHEEL_THRESHOLD = 256

#: Calendar bucket width in simulated seconds.  Near events (within
#: the current epoch or below ``_heap_max``) always go to the heap,
#: so the width only tunes how coarsely the far population is binned.
_WHEEL_WIDTH = 1.0


def last_simulator() -> Optional["Simulator"]:
    """Return the most recently constructed :class:`Simulator`.

    Every experiment builds exactly one simulator per run, but none of
    the experiment entry points return it.  The harness uses this hook
    to read :attr:`Simulator.events_processed` after a cell finishes,
    without threading the engine through every experiment signature.
    Only valid between one experiment's construction and the next.
    After :func:`repro.harness.run_cell` it is the cell's *closed*
    simulator (:meth:`Simulator.close`): it holds only the counters
    (``now``, ``events_processed``, ``far_events_peak``), not the
    model.
    """
    return _last_simulator


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can
    cancel them.  A cancelled event stays in the heap but is skipped
    when popped (lazy deletion), which keeps cancellation O(1).

    Once the callback is about to run, or the simulator is closed, the
    handle is dead: ``cancelled`` is set, so ``cancel()`` — also from
    inside the callback itself — is a no-op.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # The owner counts cancelled entries still queued.
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so it will not fire.  No-op after it fired."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Deterministic discrete-event scheduler.

    The simulator owns the virtual clock (:attr:`now`, in seconds) and
    an event heap.  ``run()`` pops events in (time, insertion-order)
    order until the heap empties, a time horizon passes, or an event
    limit is hit.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # (time, seq, Event) and anonymous (time, seq, fn, args) entries.
        self._heap: List[tuple] = []
        self._seq: int = 0
        # Cancelled Event entries still in the heap or the calendar.
        self._cancelled: int = 0
        self._events_processed: int = 0
        self._running = False
        # Calendar state (see the module docstring): ``_far`` maps
        # epoch index -> unsorted list of parked heap entries.
        self._far: dict = {}
        self._far_count: int = 0
        self._epoch: int = 0
        self._heap_max: float = 0.0
        self._far_bound: float = _INF
        self._far_peak: int = 0
        # Whichever instruments are armed now, bound for this
        # simulator's lifetime in observers.ROLES order.
        self._observers: tuple = observers.active()
        for observer in self._observers:
            observer.register_simulator(self)
        global _last_simulator
        _last_simulator = self

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule *fn(*args)* to run *delay* seconds from now.

        Negative delays are rejected: an event in the past would break
        the monotone-clock invariant.
        """
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_anon(self, delay: float, fn: Callable[..., Any],
                      *args: Any) -> None:
        """Schedule *fn(*args)* with no handle (not cancellable).

        The fire-and-forget variant of :meth:`schedule` for callers
        that drop the returned handle — packet deliveries, transmission
        completions, one-shot application timers: no :class:`Event`
        object and nothing to mark on dispatch.  Ordering is the same
        ``(time, seq)``, so the two kinds interleave exactly as
        :meth:`schedule` alone would have ordered them.
        """
        self._push((self.now + delay, self._seq, fn, args))

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule *fn(*args)* at absolute simulated time *time*."""
        seq = self._seq
        event = Event(time, seq, fn, args, self)
        self._push((time, seq, event))
        return event

    def _push(self, entry: tuple) -> None:
        """The one way an entry enters the scheduler.

        *entry* is ``(time, seq, event)`` or ``(time, seq, fn, args)``
        with ``seq`` the current ``_seq``, which this consumes.
        """
        time = entry[0]
        # One chained comparison rejects the past, NaN (every
        # comparison with it is false) and +inf (int(inf / width)
        # below would raise a bare OverflowError) together.
        if not self.now <= time < _INF:
            raise SimulationError(
                f"cannot schedule event at t={time!r}: not a finite time "
                f"at or after now={self.now:.6f}")
        self._seq += 1
        heap = self._heap
        if self._far_count or len(heap) > _WHEEL_THRESHOLD:
            epoch = int(time / _WHEEL_WIDTH)
            if (time >= self._far_bound
                    or (epoch > self._epoch
                        and epoch * _WHEEL_WIDTH > self._heap_max)):
                self._far.setdefault(epoch, []).append(entry)
                count = self._far_count + 1
                self._far_count = count
                if count > self._far_peak:
                    self._far_peak = count
                bound = epoch * _WHEEL_WIDTH
                if bound < self._far_bound:
                    self._far_bound = bound
                return
        if time > self._heap_max:
            self._heap_max = time
        _heappush(heap, entry)

    def _advance_epoch(self) -> None:
        """Load the earliest calendar bucket into the (empty) heap.

        Only called while ``_far_count`` is nonzero.  Entries are
        merged with ``heapify``; ``(time, seq)`` uniqueness makes the
        merged order exactly what a single global heap would have
        produced.  ``_heap_max`` conservatively becomes the loaded
        epoch's upper boundary, so subsequent parking decisions stay
        safe.
        """
        far = self._far
        epoch = min(far)
        entries = far.pop(epoch)
        self._far_count -= len(entries)
        heap = self._heap
        heap.extend(entries)
        heapify(heap)
        self._epoch = epoch
        self._heap_max = (epoch + 1) * _WHEEL_WIDTH
        self._far_bound = min(far) * _WHEEL_WIDTH if far else _INF

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel *event* if it is pending.  ``None`` is accepted as a no-op."""
        if event is not None:
            event.cancel()

    def close(self) -> None:
        """Drop every pending event and everything the run held.

        The heap, the calendar buckets and the observer tuple go;
        pending handles become dead (a later ``cancel()`` is a
        no-op).  :attr:`now`, :attr:`events_processed` and
        :attr:`far_events_peak` survive, so a closed simulator is a
        record of its run that pins none of the model it drove.
        Idempotent; ``run()`` afterwards finds nothing to process.
        """
        if self._running:
            raise SimulationError("cannot close a running simulator")
        for bucket in (self._heap, *self._far.values()):
            for entry in bucket:
                if len(entry) == 3:
                    entry[2].cancelled = True
        self._heap = []
        self._far = {}
        self._far_count = 0
        self._far_bound = _INF
        self._cancelled = 0
        self._observers = ()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Process events until the heap drains or a bound is reached.

        ``until`` is an inclusive time horizon: events scheduled at
        exactly ``until`` still fire.  Returns the number of events
        processed during this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        # Dispatch allocates heavily (heap tuples, packets, segments)
        # but almost everything dies by refcount; suspending the
        # cyclic collector for the duration avoids generation-0 scans
        # every ~700 allocations.  Cycles made during a run (topology,
        # connections) live as long as the model; the harness frees
        # them when the cell ends (close(), then one young collection).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            processed = self._dispatch(
                _INF if until is None else until,
                _INF if max_events is None else max_events)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        for observer in self._observers:
            observer.on_run_end(self)
        return processed

    def _dispatch(self, horizon: float, limit: float) -> int:
        """The dispatch loop: pop, advance the clock, observe, call."""
        heap = self._heap
        observers = self._observers
        now = self.now
        # ``_events_processed`` is batched on a local and folded back
        # whenever someone can look: before observers run (so what
        # they read mid-run is exact) and on the way out.
        # ``processed`` counts callbacks that returned, ``folded`` how
        # many of those ``_events_processed`` already holds.
        processed = folded = 0
        try:
            while True:
                if not heap:
                    if not self._far_count:
                        break
                    self._advance_epoch()
                entry = _heappop(heap)
                if len(entry) == 4:
                    # Anonymous event (time, seq, fn, args): no handle
                    # to mark, no cancellation to test.
                    event = None
                    fn = entry[2]
                    args = entry[3]
                else:
                    event = entry[2]
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    fn = event.fn
                    args = event.args
                time = entry[0]
                if time > horizon or processed >= limit:
                    # A bound is reached: the event stays pending.
                    _heappush(heap, entry)
                    if time <= horizon:
                        return processed
                    break
                if time < now:
                    raise SimulationError(
                        "event heap yielded an event in the past")
                self.now = now = time
                if event is not None:
                    # The handle dies as it fires: a cancel() from now
                    # on, the callback's own included, is a no-op.
                    event.cancelled = True
                if observers:
                    self._events_processed += processed - folded
                    folded = processed
                    for observer in observers:
                        observer.on_event(self, fn)
                fn(*args)
                processed += 1
            # Nothing live remains at or before the horizon: advance
            # the clock to it so back-to-back run(until=...) calls
            # observe monotone time.
            if now < horizon < _INF:
                self.now = horizon
        finally:
            self._events_processed += processed - folded
        return processed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (heap and
        calendar)."""
        return len(self._heap) + self._far_count - self._cancelled

    @property
    def events_processed(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_processed

    @property
    def heap_size(self) -> int:
        """Raw heap length, including lazily-deleted cancelled events.

        Far events parked in calendar buckets are *not* counted; see
        :attr:`far_events`.
        """
        return len(self._heap)

    @property
    def far_events(self) -> int:
        """Events parked in far-horizon calendar buckets (may include
        cancelled handles, mirroring :attr:`heap_size`)."""
        return self._far_count

    @property
    def far_events_peak(self) -> int:
        """Largest number of simultaneously parked far events seen.

        Zero means the calendar wheel never engaged and the run used
        the plain tuple heap throughout.  Deterministic, so scaling
        cells can gate on it."""
        return self._far_peak

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
