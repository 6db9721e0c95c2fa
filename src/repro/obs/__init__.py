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

# Re-exports are lazy (PEP 562): the arena's league tables and the CLI
# read `repro.obs.report`, and must not load the engine the gauges
# module arms against.
_EXPORTS = {
    "TELEMETRY_SCHEMA": "events", "TelemetrySink": "events",
    "load_events": "events",
    "DEFAULT_SAMPLE_EVERY": "gauges", "GaugeSampler": "gauges",
    "observing": "gauges",
    "render_report": "report",
}


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "TELEMETRY_SCHEMA",
    "TelemetrySink",
    "load_events",
    "DEFAULT_SAMPLE_EVERY",
    "GaugeSampler",
    "render_report",
    "observing",
]
