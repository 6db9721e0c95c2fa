"""On-disk result cache for harness cells.

Cells are deterministic functions of (cell key, simulator source), so
their results can be memoised on disk: a cache entry is valid exactly
as long as nothing under ``src/repro`` changed.  The cache directory
is laid out as::

    .repro-cache/<src_hash prefix>/<sha256(cell key) prefix>.json

One subdirectory per source-tree hash means a source edit simply
starts a fresh namespace — stale entries are never consulted and can
be garbage-collected wholesale by deleting old subdirectories.

Entries store the cell key alongside the metrics so a (truncated-)hash
collision is detected rather than silently served.  An entry that is
not a cell record (:func:`~repro.harness.artifacts.cell_problem`) is a
miss, like one that is not JSON at all.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.harness.artifacts import cell_problem

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


def compute_src_hash(root: Optional[Union[str, Path]] = None,
                     extra_files: Optional[Iterable[Union[str, Path]]] = None,
                     ) -> str:
    """Content hash of every ``*.py`` file under *root*.

    Defaults to the installed ``repro`` package directory, so any
    source edit — simulator, experiments, harness itself — invalidates
    the cache.  Files are folded in sorted-relative-path order for a
    stable digest.

    *extra_files* are support files folded in after the tree (missing
    ones are skipped).  When *root* defaults, the project's
    ``pyproject.toml`` is folded in automatically: tool configuration
    (pinned options, pytest/ruff settings, dependency pins) can change
    behaviour without touching any ``*.py`` file, and a stale cache
    must not survive that.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).parent
        if extra_files is None:
            # src/repro/__init__.py -> repo root / pyproject.toml
            extra_files = [root.parents[1] / "pyproject.toml"]
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    for extra in sorted(Path(p) for p in (extra_files or ())):
        if not extra.is_file():
            continue
        digest.update(extra.name.encode())
        digest.update(b"\0")
        digest.update(extra.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class ResultCache:
    """Cell-result store keyed by (source hash, cell key)."""

    def __init__(self, root: Union[str, Path], src_hash: str):
        self.root = Path(root)
        self.src_hash = src_hash
        self._dir = self.root / src_hash[:16]

    def _path(self, key: str) -> Path:
        name = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self._dir / f"{name}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload for *key*, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if cell_problem(payload) is not None:  # valid JSON, not a record
            return None
        if payload["key"] != key:  # truncated-hash collision
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store *payload* (must be JSON-serialisable) under *key*.

        Writes via a temporary file + rename so concurrent runs never
        observe a torn entry.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        record = dict(payload)
        record["key"] = key
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        os.replace(tmp, path)
