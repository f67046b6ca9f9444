"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics

# Percentile levels the benchmark may report, lowest first.
LEVELS = (50.0, 90.0, 99.0, 99.9)
MIN_ABOVE = 10


def nearest_rank(values, level: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    ``level`` percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), level) - 1]


def _rank(n: int, level: float) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(level / 100.0 * n, 6)))


def samples_above(n: int, level: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank percentile."""
    return n - _rank(n, level)


def tail_level(n: int) -> float | None:
    """The highest of ``LEVELS`` with at least ``MIN_ABOVE`` samples above
    it, or None when even the median has fewer."""
    supported = [lv for lv in LEVELS if samples_above(n, lv) >= MIN_ABOVE]
    return max(supported) if supported else None


def summarize(values) -> dict:
    """Median, the highest supported tail percentile, and the sample count."""
    values = list(values)
    out = {"n": len(values), "p50": statistics.median(values) if values else None}
    level = tail_level(len(values))
    if level is not None and level > 50.0:
        out["tail_level"] = level
        out["tail"] = nearest_rank(values, level)
    return out


def overhead_ms_per_request(
    complete_ms_total: float,
    requests: int,
    injected_ms_total: float,
    backoff_ms_total: float,
) -> float:
    """Client time per HTTP request beyond what the endpoint and the retry
    policy impose: the endpoint slept ``injected_ms_total`` before its
    answers, and the retry loop slept ``backoff_ms_total``."""
    if requests < 1:
        raise ValueError("no requests")
    return (complete_ms_total - injected_ms_total - backoff_ms_total) / requests


def spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
