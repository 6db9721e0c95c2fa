"""Seeded random-number streams and the distributions used by tcplib.

Every stochastic component in the library draws from its own named
stream, derived deterministically from the experiment seed.  Two
benefits: runs are bit-reproducible, and adding a new consumer of
randomness does not perturb the draws seen by existing components
(each stream is independent).

The distribution helpers cover what the traffic generator needs:
exponential interarrivals, log-normal object sizes, bounded geometric
counts, and draws from small empirical tables.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List, Sequence, Tuple

from repro.numeric import fold_sum


class RngRegistry:
    """Factory for named, independently seeded ``random.Random`` streams.

    ``registry.stream("traffic")`` always returns the same object for a
    given name, seeded from a SHA-256 hash of ``(root_seed, name)`` so
    that streams are decorrelated even for adjacent seeds.
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under *name*, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.root_seed}/{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry whose streams are independent of this one."""
        digest = hashlib.sha256(f"{self.root_seed}/spawn/{name}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))


def exponential(rng: random.Random, mean: float) -> float:
    """Draw from an exponential distribution with the given *mean*."""
    if mean <= 0:
        raise ValueError("exponential mean must be positive")
    return rng.expovariate(1.0 / mean)


def lognormal_bytes(rng: random.Random, median: float, sigma: float,
                    minimum: int = 1, maximum: int = 10 * 1024 * 1024) -> int:
    """Draw an object size in bytes from a log-normal distribution.

    *median* is the distribution median in bytes; *sigma* the shape
    parameter of the underlying normal.  The draw is clamped to
    ``[minimum, maximum]`` — tcplib's tables are similarly truncated by
    the finite traces they came from.
    """
    mu = math.log(median)
    value = int(round(rng.lognormvariate(mu, sigma)))
    return max(minimum, min(maximum, value))


def bounded_geometric(rng: random.Random, mean: float, minimum: int = 1,
                      maximum: int = 1000) -> int:
    """Draw a count from a geometric distribution with the given *mean*.

    Used for "number of items in an FTP conversation"-style quantities,
    which tcplib reports as heavy-tailed small integers.
    """
    if mean < minimum:
        return minimum
    p = 1.0 / (mean - minimum + 1.0)
    count = minimum
    while rng.random() > p and count < maximum:
        count += 1
    return count


def empirical(rng: random.Random, table: Sequence[Tuple[float, float]]) -> float:
    """Draw from an empirical CDF given as ``[(cum_prob, value), ...]``.

    The table must be sorted by cumulative probability and end at 1.0.
    Values between listed points are linearly interpolated, mirroring
    how tcplib interpolates its trace-derived tables.
    """
    if not table:
        raise ValueError("empirical table must not be empty")
    u = rng.random()
    prev_p, prev_v = 0.0, table[0][1]
    for p, v in table:
        if u <= p:
            if p == prev_p:
                return v
            frac = (u - prev_p) / (p - prev_p)
            return prev_v + frac * (v - prev_v)
        prev_p, prev_v = p, v
    return table[-1][1]


def weighted_choice(rng: random.Random, weights: Dict[str, float]) -> str:
    """Pick a key from *weights* with probability proportional to its value."""
    total = fold_sum(weights.values())
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    u = rng.random() * total
    acc = 0.0
    keys: List[str] = sorted(weights)  # sorted for determinism
    for key in keys:
        acc += weights[key]
        if u <= acc:
            return key
    return keys[-1]
