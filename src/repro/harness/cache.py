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
miss, like one that is not UTF-8 JSON at all or not a readable file.

A hit is one ``sha256`` of the key, one unbuffered ``os.read`` of the
entry and one ``json.loads`` of its text: no file object, no text
layer, no incremental decoder.  An entry is written through tmp +
rename (:func:`~repro.harness.artifacts.write_text`), so a reader
never sees a torn one, and a cache directory that cannot be created
or written is a :class:`~repro.errors.ReproError` naming it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.digest import sha256
from repro.errors import ReproError
from repro.harness.artifacts import cell_problem, write_text

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bytes asked of one ``os.read``: a cell record is well under 1 KB, so
#: one read returns the whole entry; a larger one is read to its end.
READ_CHUNK = 1 << 16


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
    digest = sha256()
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
        # A plain string: a cache-warm sweep is one lookup per cell, and
        # a Path built per lookup was a large share of its cost.
        self._dir = os.path.join(root, src_hash[:16])

    def _path(self, key: str) -> str:
        name = sha256(key.encode()).hexdigest()[:32]
        return f"{self._dir}{os.sep}{name}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload for *key*, or ``None`` on a miss."""
        path = self._path(key)
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                data = os.read(fd, READ_CHUNK)
                if len(data) == READ_CHUNK:
                    data += _read_rest(fd)
            finally:
                os.close(fd)
            # A UnicodeDecodeError is a ValueError: not UTF-8, a miss.
            payload = json.loads(data.decode())
        except (OSError, ValueError):
            return None
        if cell_problem(payload) is not None:  # valid JSON, not a record
            return None
        if payload["key"] != key:  # truncated-hash collision
            return None
        return payload

    def prepare(self) -> None:
        """Create this namespace's directory; a cache directory that
        cannot hold it is a :class:`~repro.errors.ReproError`."""
        try:
            os.makedirs(self._dir, exist_ok=True)
        except OSError as exc:
            raise ReproError(f"cannot use cache directory "
                             f"{str(self.root)!r}: {exc}") from exc

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store *payload* (must be JSON-serialisable) under *key*.

        Writes via a temporary file + rename so concurrent runs never
        observe a torn entry; a write that fails (a full disk, a
        directory squatting on the entry) removes its temporary file
        and is a :class:`~repro.errors.ReproError`.
        """
        self.prepare()
        record = dict(payload)
        record["key"] = key
        write_text(self._path(key), json.dumps(record, sort_keys=True))


def _read_rest(fd: int) -> bytes:
    """Everything left in *fd* after a full first chunk."""
    chunks = []
    while True:
        chunk = os.read(fd, READ_CHUNK)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)
