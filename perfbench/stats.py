"""Percentiles under the benchmark's validity rule.

A percentile is reported only together with its sample count, and it is
valid only when at least ``MIN_BEYOND`` samples lie beyond it: a p99
needs n >= 1000.  An invalid percentile is still computed, but flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Linearly interpolated ``p``-th percentile (0 <= p <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile_valid(n: int, p: float) -> bool:
    """True when at least ``MIN_BEYOND`` of ``n`` samples lie beyond ``p``."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


@dataclass(frozen=True)
class Quantity:
    """One reported percentile with its sample count and validity flag."""

    value: float
    n: int
    valid: bool


def summarize(samples, p: float, scale: float = 1.0) -> Quantity:
    """The ``p``-th percentile of ``samples`` times ``scale``, flagged."""
    n = len(samples)
    return Quantity(percentile(samples, p) * scale, n, percentile_valid(n, p))
