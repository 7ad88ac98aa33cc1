"""Order statistics shared by the runner, the SUT child and compare.py."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return float(ordered[int(rank) - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` — the estimator the
    benchmark's acceptance rule is stated in — so a spread printed here
    is the number that rule will compute.  Fewer than two values have
    no spread (0.0).
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def halves_ratio(units: Sequence[tuple[float, float]]) -> float:
    """Throughput of the second half of *units* over that of the first.

    Each unit is ``(tasks, seconds)`` — a wave, or a time bin.  The
    sustain metric: 1.0 means the system ends the window at the rate it
    started.  Halves of summed work over summed time, not medians of
    thirds: on a host whose cores slow by a third for seconds at a time
    the thirds' medians spread 0.20-0.23 run to run, the halves 0.11.
    """
    half = len(units) // 2
    if not half:
        return 0.0

    def rate(part: Sequence[tuple[float, float]]) -> float:
        seconds = sum(s for _n, s in part)
        return sum(n for n, _s in part) / seconds if seconds else 0.0

    first = rate(units[:half])
    return rate(units[-half:]) / first if first else 0.0
