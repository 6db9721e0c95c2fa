"""Fairness metrics.

The paper's §4.3 multiple-connection experiments judge fairness with
Jain's fairness index (R. Jain, "The Art of Computer Systems
Performance Analysis", 1991):

    f(x_1..x_n) = (sum x_i)^2 / (n * sum x_i^2)

The index is 1.0 for perfectly equal allocations and approaches 1/n
when a single connection takes everything.
"""

from __future__ import annotations

from typing import Sequence

from repro.numeric import fold_sum


def jain_fairness_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index over the given per-flow allocations.

    Raises ValueError for an empty sequence or negative allocations.
    Returns 1.0 for the degenerate all-zero allocation (nobody is
    being treated unfairly when nobody gets anything).
    """
    if not allocations:
        raise ValueError("fairness index needs at least one allocation")
    if any(x < 0 for x in allocations):
        raise ValueError("allocations must be non-negative")
    total = fold_sum(allocations)
    if total == 0:
        return 1.0
    squares = fold_sum(x * x for x in allocations)
    if squares == 0:
        # Denormal allocations can underflow x*x to zero even though
        # the sum is positive; such allocations are effectively equal.
        return 1.0
    return (total * total) / (len(allocations) * squares)


def worst_to_best_ratio(allocations: Sequence[float]) -> float:
    """min/max throughput ratio: a blunter fairness indicator."""
    if not allocations:
        raise ValueError("ratio needs at least one allocation")
    best = max(allocations)
    if best == 0:
        return 1.0
    return min(allocations) / best
