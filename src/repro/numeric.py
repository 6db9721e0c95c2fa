"""Float sums that are the same on every supported Python.

Python 3.12 made the built-in ``sum()`` compensate float additions, so
``sum([0.1] * 10)`` is ``1.0`` there and ``0.9999999999999999`` on
3.11.  A cell metric must not depend on the interpreter, so every float
sum that becomes a metric or steers the model is :func:`fold_sum`: the
plain left fold ``sum()`` computed before 3.12.  This module imports
nothing, so any layer may use it.
"""

from __future__ import annotations

from typing import Iterable


def fold_sum(values: Iterable[float]) -> float:
    """``values[0] + values[1] + ...``, left to right, uncompensated."""
    total = 0
    for value in values:
        total += value
    return total
