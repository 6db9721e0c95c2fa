"""Structured JSONL telemetry events.

A :class:`TelemetrySink` is a run-scoped, append-only event log: one
JSON object per line, written with a single ``write`` call per event
so concurrently-appending worker processes (the harness runs cells
under ``fork``) interleave whole lines rather than corrupting each
other.  The schema is deliberately minimal and open:

``{"ts": <unix seconds>, "event": <dotted name>, ...payload}``

Harness phases are recorded as *spans* — paired ``<name>.start`` /
``<name>.end`` events sharing a ``span_id``, the ``.end`` carrying
``duration_s`` — so a report can reconstruct phase timings without a
stateful reader.

The sink never raises into the instrumented code path: telemetry is
observability, and a full disk must not change a run's outcome.  Write
failures flip the sink into a disabled state after recording the
error on ``last_error``.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Optional

#: Schema identifier stamped on the first event a sink writes.
TELEMETRY_SCHEMA = "repro-telemetry/v1"


class TelemetrySink:
    """Append-only JSONL event writer for one run.

    Args:
        path: file to append to (created if missing).
        run_id: optional identifier stamped on every event; defaults
            to the writing process id, which distinguishes harness
            workers from the coordinating parent.
        clock: unix-time source (injectable for tests).
    """

    def __init__(self, path: str, run_id: Optional[str] = None,
                 clock=time.time):
        self.path = path
        self.run_id = run_id if run_id is not None else f"pid-{os.getpid()}"
        self._clock = clock
        self._span_ids = itertools.count(1)
        self.events_written = 0
        self.last_error: Optional[str] = None
        try:
            # Line buffered: each event reaches the file as one write.
            self._file = open(path, "a", buffering=1)
        except OSError as exc:
            self._file = None
            self.last_error = str(exc)

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._file is not None

    def emit(self, event: str, **fields: Any) -> None:
        """Write one event line; never raises."""
        if self._file is None:
            return
        record: Dict[str, Any] = {"ts": self._clock(), "event": event,
                                  "run_id": self.run_id}
        if self.events_written == 0:
            record["schema"] = TELEMETRY_SCHEMA
        record.update(fields)
        try:
            self._file.write(
                json.dumps(record, sort_keys=True, default=str) + "\n")
            self.events_written += 1
        except (OSError, ValueError) as exc:
            self.last_error = str(exc)
            self.close()

    @contextmanager
    def span(self, name: str, **fields: Any):
        """Emit ``<name>.start`` now and ``<name>.end`` on exit.

        The ``.end`` event carries ``duration_s`` (wall clock) and
        ``ok`` (False when the block raised); both events share a
        ``span_id`` unique within this sink.
        """
        span_id = f"{self.run_id}:{next(self._span_ids)}"
        started = time.perf_counter()
        self.emit(f"{name}.start", span_id=span_id, **fields)
        ok = True
        try:
            yield span_id
        except BaseException:
            ok = False
            raise
        finally:
            self.emit(f"{name}.end", span_id=span_id, ok=ok,
                      duration_s=round(time.perf_counter() - started, 6),
                      **fields)

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError as exc:  # pragma: no cover - close rarely fails
                self.last_error = str(exc)
            self._file = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.enabled else "closed"
        return f"TelemetrySink({self.path!r}, {state}, {self.events_written} events)"


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _malformed(record: Any) -> Optional[str]:
    """Why ``repro report`` could not read *record*, or ``None``: the
    fields it does arithmetic on must be numbers wherever they appear."""
    if not isinstance(record, dict) or "event" not in record:
        return "telemetry record has no 'event' field"
    if not isinstance(record["event"], str):
        return f"telemetry 'event' is not a string: {record['event']!r}"
    for name in ("ts", "duration_s", "events_per_sec"):
        if name in record and not _number(record[name]):
            return f"telemetry field {name!r} is not a number: {record[name]!r}"
    queues = record.get("queues", [])
    if not isinstance(queues, list) or not all(
            isinstance(q, dict) and isinstance(q.get("name"), str)
            and _number(q.get("depth"))
            and all(_number(q.get(f, 0)) for f in ("max_depth", "drops"))
            for q in queues):
        return "telemetry 'queues' is not a list of queue objects"
    return None


def load_events(path: str):
    """Parse a telemetry JSONL file into a list of event dicts.

    Raises :class:`~repro.errors.ReproError` on unreadable files or
    malformed lines — the report CLI turns that into exit 2, which is
    what the CI smoke step gates on.
    """
    from repro.errors import ReproError

    events = []
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ReproError(
                        f"{path}:{lineno}: malformed telemetry line: {exc}"
                    ) from exc
                problem = _malformed(record)
                if problem is not None:
                    raise ReproError(f"{path}:{lineno}: {problem}")
                events.append(record)
    except OSError as exc:
        raise ReproError(f"cannot read telemetry file {path!r}: {exc}") from exc
    return events
