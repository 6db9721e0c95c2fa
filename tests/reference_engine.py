"""A deliberately naive scheduler: the engine differential's oracle.

``ReferenceSimulator`` offers the public scheduler API of
:class:`repro.sim.engine.Simulator` and nothing else: one object heap
ordered by ``(time, seq)``, a fresh allocation per event, lazy
deletion, counters recomputed from the heap on demand.  No tuple
entries, no free list, no calendar, no batching, no observers — every
line is meant to be checkable by eye, so that when
``tests/test_engine_differential.py`` finds the production engine and
this one disagreeing, the production engine is the suspect.
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.errors import SimulationError


class ReferenceEvent:
    """A scheduled callback; ``cancel()`` marks it so it never fires."""

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class ReferenceSimulator:
    """Events fire in ``(time, insertion order)``; nothing else is promised."""

    #: The reference never parks an event.
    far_events_peak = 0

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._heap = []
        self._seq = itertools.count()

    def schedule_at(self, time, fn, *args):
        if not (self.now <= time < math.inf):
            raise SimulationError(f"cannot schedule event at t={time!r}")
        event = ReferenceEvent(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_anon(self, delay, fn, *args):
        self.schedule_at(self.now + delay, fn, *args)

    def cancel(self, event):
        if event is not None:
            event.cancel()

    @property
    def pending_events(self):
        return sum(1 for event in self._heap if not event.cancelled)

    def run(self, until=None, max_events=None):
        processed = 0
        while self._heap and (max_events is None or processed < max_events):
            event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and event.time > until:
                break
            heapq.heappop(self._heap)
            self.now = event.time
            event.fn(*event.args)
            processed += 1
            self.events_processed += 1
        if until is not None and self.now < until and not any(
                event.time <= until and not event.cancelled
                for event in self._heap):
            self.now = until
        return processed
