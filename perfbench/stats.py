"""Order statistics shared by the benchmark driver, child runs and tests."""

from __future__ import annotations

import statistics

__all__ = ["median", "quartiles", "tail"]


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With eleven samples or
    fewer no percentile has ten beyond it, so the median stands in (and
    its percentile, 50, says so).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 11:
        return statistics.median(ordered), 50.0, n
    k = n - 11  # ten samples strictly after index k
    return ordered[k], 100.0 * (k + 1) / n, n
