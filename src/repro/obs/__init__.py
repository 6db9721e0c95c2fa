"""Run-scoped telemetry: JSONL event log, engine gauges, run reports.

Three pieces, one file format:

* :mod:`repro.obs.events` — :class:`TelemetrySink`, the append-only
  JSONL writer the harness uses to record phase spans (cell start /
  finish, cache hits, retries, quarantine);
* :mod:`repro.obs.gauges` — :class:`GaugeSampler`, opt-in periodic
  engine gauges (cwnd/flight/mode per connection, depth/drops per
  queue, events/sec) that piggyback on the run loop without touching
  ``events_processed``;
* :mod:`repro.obs.report` — ``python -m repro report``, rendering a
  Markdown run report from a sweep artifact plus its telemetry.

The sampler is armed under the ``gauges`` role of
:mod:`repro.sim.observers` (``with observing(path=...)``): zero cost
when off, construction-time registration when armed.
"""

from repro.obs.events import TELEMETRY_SCHEMA, TelemetrySink, load_events
from repro.obs.gauges import DEFAULT_SAMPLE_EVERY, GaugeSampler, observing
from repro.obs.report import render_report

__all__ = [
    "TELEMETRY_SCHEMA",
    "TelemetrySink",
    "load_events",
    "DEFAULT_SAMPLE_EVERY",
    "GaugeSampler",
    "render_report",
    "observing",
]
