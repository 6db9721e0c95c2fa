"""Schema-versioned JSON artifacts for harness sweeps.

The artifact is the machine-readable record of a sweep: one entry per
cell with its parameters and metrics, plus run metadata (job count,
cache accounting, wall clock).  Determinism contract: for the same
source tree and cells, the ``cells`` array is byte-identical across
``--jobs`` settings, across cached/uncached runs, **and across
execution backends** (``--jobs`` vs ``--bind``) except for
the ``wall_clock_s``/``cached`` bookkeeping and the v3 provenance
fields (``worker``/``attempts``/``attempt_log``), which is why
:func:`cells_fingerprint` — the hash CI compares — covers only the
deterministic fields.

The document also carries a ``failures`` array — the quarantine
manifest (see :mod:`repro.harness.lease`): one structured record per
cell that timed out, crashed, diverged or violated an invariant after
its retries were exhausted.  Failures never enter the fingerprint;
they describe what could *not* be computed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.digest import sha256
from repro.errors import ReproError

#: Bump on any change to the document layout or cell key format.
#: v2 added the ``failures`` section (the quarantine manifest); v3 adds
#: per-cell execution provenance —
#: ``worker`` (the executing worker, ``null`` in-process or cached),
#: ``attempts`` and ``attempt_log`` (retry history) — plus the run's
#: ``backend`` and ``interrupted`` markers.  :func:`load_document`
#: accepts this version only; re-run the sweep to refresh an older file.
SCHEMA_VERSION = "repro-harness/v3"


def build_document(report, mode: str, src_hash: str,
                   telemetry: str = None) -> Dict[str, Any]:
    """Render a :class:`~repro.harness.runner.RunReport` as an artifact.

    ``telemetry`` records the path of the sweep's telemetry JSONL (when
    one was written) in the run metadata, so ``repro report`` and CI
    can pair the two files.  It never enters the cells fingerprint.
    """
    cells: List[Dict[str, Any]] = []
    for result in sorted(report.results, key=lambda r: r.key):
        cells.append({
            "key": result.key,
            "experiment": result.cell.experiment,
            "params": result.cell.as_dict(),
            # Key order is left to the writers: write_document and
            # cells_fingerprint both serialise with sort_keys.
            "metrics": result.metrics,
            "wall_clock_s": result.wall_clock_s,
            "cached": result.cached,
            "worker": result.worker,
            "attempts": result.attempts,
            "attempt_log": list(result.attempt_log),
        })
    failures = [f.as_dict() for f in
                sorted(report.failures, key=lambda f: f.key)]
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "src_hash": src_hash,
        "run": {
            "jobs": report.jobs,
            "backend": report.backend,
            "interrupted": report.interrupted,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "cells": len(cells),
            "failed": len(failures),
            "elapsed_s": report.elapsed_s,
            "cell_wall_clock_s": sum(c["wall_clock_s"] for c in cells),
            "telemetry": telemetry,
        },
        "cells": cells,
        "failures": failures,
    }


def cells_fingerprint(doc: Dict[str, Any]) -> str:
    """Hash of the deterministic part of a document's cells.

    Two sweeps of the same code and grid have equal fingerprints no
    matter how many jobs ran them or what was cached.
    """
    stable = [{"key": c["key"], "experiment": c["experiment"],
               "params": c["params"], "metrics": c["metrics"]}
              for c in sorted(doc["cells"], key=lambda c: c["key"])]
    blob = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


def write_text(path: str, text: str) -> None:
    """Write *text* to *path* through tmp + rename.

    A reader never sees a torn file, and a directory that vanished or
    a disk that filled mid-run is a :class:`ReproError`, not a
    traceback after the sweep's work is done.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise ReproError(f"cannot write {path!r}: {exc}") from exc
        raise


def write_document(path: str, doc: Dict[str, Any]) -> None:
    """Write *doc* as indented, key-sorted JSON (see :func:`write_text`)."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_json(path: str, what: str, schema: str) -> Dict[str, Any]:
    """Read the JSON object at *path*; it must declare *schema*."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read {what} {path!r}: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != schema:
        raise ReproError(f"{path!r}: unsupported schema {version!r} "
                         f"(expected {schema})")
    return doc


#: The types ``json`` decodes a number to (``True`` is a ``bool``, not
#: an ``int``, by this test).
_NUMBERS = (int, float)


def cell_problem(cell: Any) -> Optional[str]:
    """What makes *cell* unusable by a reader, or ``None``.

    A cell record (an artifact's cell or a cache entry) is an object
    with a string ``key``, a ``metrics`` object of numbers and, when
    present, a numeric ``wall_clock_s``.
    """
    if not isinstance(cell, dict):
        return "is not an object"
    if not isinstance(cell.get("key"), str):
        return "has no string 'key'"
    metrics = cell.get("metrics")
    if not isinstance(metrics, dict):
        return "has no 'metrics' object"
    for name, value in metrics.items():
        if type(value) not in _NUMBERS:
            return f"has a non-numeric metric {name!r}: {value!r}"
    if type(cell.get("wall_clock_s", 0.0)) not in _NUMBERS:
        return f"has a non-numeric 'wall_clock_s': {cell['wall_clock_s']!r}"
    return None


def load_document(path: str) -> Dict[str, Any]:
    """Load and validate an artifact written by :func:`write_document`.

    Every cell must be an object with a string ``key`` and a
    ``metrics`` object of numbers: a reader compares and renders them
    without checking again.
    """
    doc = load_json(path, "harness artifact", SCHEMA_VERSION)
    if not isinstance(doc.get("cells"), list):
        raise ReproError(f"{path!r}: artifact has no cells array")
    for index, cell in enumerate(doc["cells"]):
        problem = cell_problem(cell)
        if problem is not None:
            raise ReproError(f"{path!r}: cell {index} {problem}")
    failures = doc.get("failures", [])
    if not (isinstance(failures, list)
            and all(isinstance(f, dict) for f in failures)):
        raise ReproError(f"{path!r}: artifact failures section is not a "
                         "list of objects")
    return doc
