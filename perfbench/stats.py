"""Statistics and span arithmetic shared by the runner and its self-tests.

Stdlib only: the runner process never imports numpy or fatoulab, so its own
start-up stays out of every measurement.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple:
    """(value, percentile) of the highest percentile with ``beyond`` samples above it.

    With n sorted samples, rank k (1-based) has n - k samples beyond it, so
    the highest qualifying rank is n - beyond, at percentile 100 (n - beyond) / n.
    When that rank falls below the median (n < 2 * beyond), no percentile is
    both a tail and backed by that many samples, and the maximum is reported
    as percentile 100.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of an empty sample")
    n = len(xs)
    k = n - beyond
    if 2 * k < n:
        return float(xs[-1]), 100.0
    return float(xs[k - 1]), 100.0 * k / n


def rate(amount: float, per: float) -> float:
    """amount / per, or 0.0 when nothing was measured (per == 0)."""
    return amount / per if per else 0.0


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` are ``[id, parent, name, t0, t1, attrs]`` records with ``id``
    equal to the list index and ``parent`` -1 for roots.
    """
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[4] - s[3]
    return out
