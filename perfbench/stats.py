"""The tail-percentile rule of the report."""

from __future__ import annotations

import math

MIN_TAIL_SAMPLES = 20
TAIL_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """Value at integer percentile pct by the nearest-rank rule."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct * n / 100))
    return sorted_values[rank - 1], rank


def tail(values):
    """The highest integer percentile with at least ten samples ranked beyond it.

    Returns ``(value, percentile, samples)``, or None below twenty samples.
    With N samples the percentile is floor(100 (N - 10) / N), so its nearest
    rank is at most N - 10; one percent more would leave fewer than ten.
    """
    n = len(values)
    if n < MIN_TAIL_SAMPLES:
        return None
    pct = 100 * (n - TAIL_BEYOND) // n
    value, _ = nearest_rank(sorted(values), pct)
    return value, pct, n
