"""``repro.digest.sha256`` is ``hashlib.sha256`` without OpenSSL.

Every stream seed, cache entry name, retry backoff and fingerprint is a
SHA-256 digest, so the built-in hash must give the same bytes as
``hashlib`` on every input, and everything derived from it must be
what the ``hashlib`` recomputation gives.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

import repro
from repro.digest import sha256
from repro.faults.injector import _channel_rng
from repro.harness import ResultCache, cells_fingerprint, compute_src_hash
from repro.harness.lease import retry_backoff
from repro.sim.rng import RngRegistry

INPUTS = {
    "empty": b"",
    "ascii": b"table4/proto=vegas-1,3/seed=0",
    "utf8": "Vegas — débit élevé, 拥塞避免 🚦".encode(),
    "over_64k": bytes(range(256)) * 300 + b"tail",
}


@pytest.mark.parametrize("data", INPUTS.values(), ids=list(INPUTS))
def test_one_call_equals_hashlib(data):
    ours, theirs = sha256(data), hashlib.sha256(data)
    assert ours.digest() == theirs.digest()
    assert ours.hexdigest() == theirs.hexdigest()


def test_updates_equal_hashlib():
    ours, theirs = sha256(), hashlib.sha256()
    for data in INPUTS.values():
        ours.update(data)
        theirs.update(data)
        assert ours.hexdigest() == theirs.hexdigest()
    assert ours.digest() == hashlib.sha256(b"".join(INPUTS.values())).digest()


def test_src_hash_equals_a_hashlib_recomputation():
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        for part in (str(path.relative_to(root)).encode(), path.read_bytes()):
            digest.update(part)
            digest.update(b"\0")
    config = root.parents[1] / "pyproject.toml"
    if config.is_file():
        for part in (config.name.encode(), config.read_bytes()):
            digest.update(part)
            digest.update(b"\0")
    assert compute_src_hash() == digest.hexdigest()


def test_an_entry_written_before_is_still_a_hit(tmp_path):
    """An entry named by ``hashlib`` (as every existing cache is) is
    where the cache looks, and the name itself is pinned."""
    key = "table4/proto=vegas-1,3/seed=0"
    name = hashlib.sha256(key.encode()).hexdigest()[:32]
    assert name == "355808d4ea926372091691b414e8d2e8"
    entry = tmp_path / ("f" * 16) / f"{name}.json"
    entry.parent.mkdir()
    entry.write_text(json.dumps({"key": key, "metrics": {"x": 1.0}}))
    cache = ResultCache(tmp_path, "f" * 64)
    assert cache._path(key) == str(entry)
    assert cache.get(key) == {"key": key, "metrics": {"x": 1.0}}


def test_derived_values_equal_hashlib():
    def seeded(text):
        digest = hashlib.sha256(text.encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big")).random()

    rng = RngRegistry(7)
    assert rng.stream("traffic").random() == seeded("7/traffic")
    child = int.from_bytes(
        hashlib.sha256(b"7/spawn/bg").digest()[:8], "big")
    assert rng.spawn("bg").root_seed == child
    assert _channel_rng(3, "r1->r2").random() == seeded("3/r1->r2")

    jitter = int.from_bytes(
        hashlib.sha256(b"k#retry2").digest()[:4], "big") / 2 ** 32
    assert retry_backoff("k", 2, base=1.0) == 2 * (0.5 + jitter)

    doc = {"cells": [{"key": "a", "experiment": "e", "params": {},
                      "metrics": {"x": 1.0}, "wall_clock_s": 3.0}]}
    blob = json.dumps([{k: doc["cells"][0][k] for k in
                        ("key", "experiment", "params", "metrics")}],
                      sort_keys=True, separators=(",", ":"))
    assert cells_fingerprint(doc) == hashlib.sha256(blob.encode()).hexdigest()
