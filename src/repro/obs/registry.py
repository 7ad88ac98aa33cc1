"""Typed, thread-safe metrics primitives shared by both planes.

The paper's evaluation is built from per-task latency distributions and
component counters (§4, Figs. 3–9); every component here used to keep
its own ad-hoc integer attributes and stringly-keyed ``stats()`` dicts.
A :class:`MetricsRegistry` replaces those with three first-class
instrument kinds:

* :class:`Counter` — monotonic event count;
* :class:`Gauge` — instantaneous value (queue depth, pool size);
* :class:`Histogram` — fixed-bucket latency distribution with
  p50/p90/p99 estimation, cheap enough to leave on in hot paths
  (one bisect + three integer increments per observation).

The registry is the single exporter surface: everything registered in
it renders to Prometheus text or JSON lines (:mod:`repro.obs.exporters`)
without the component knowing either format exists.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "quantile_from_values",
]

#: Log-spaced latency bucket upper bounds in seconds: 100 µs .. 5 min.
#: Chosen so dispatch latencies (sub-ms .. seconds) land mid-range with
#: ~2x resolution, matching the paper's reported latency scales.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


def quantile_from_values(values: Sequence[float], q: float) -> float:
    """Exact quantile of raw *values* (linear interpolation, 0 <= q <= 1).

    Shared by the sim plane's probes (which keep every sample) so both
    planes report the same definition of p50/p90/p99.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Counter:
    """A monotonic counter — an event count, or an accumulated quantity
    such as CPU seconds; may also read through a callback when the
    count already lives elsewhere (the event ring's totals)."""

    __slots__ = ("name", "help", "_value", "_fn", "_lock")

    def __init__(
        self, name: str, help: str = "", fn: Optional[Callable[[], int]] = None
    ) -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._fn = fn
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        if self._fn is not None:
            return int(self._fn())
        return self._value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """An instantaneous value; may also be backed by a callback."""

    __slots__ = ("name", "help", "_value", "_fn", "_lock")

    def __init__(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    Buckets are cumulative-style upper bounds (Prometheus ``le``
    semantics, with an implicit +Inf bucket).  Quantiles are estimated
    by locating the bucket where the cumulative count crosses the rank
    and interpolating linearly inside it — exact enough for p50/p90/p99
    reporting while storing only ``len(buckets)+1`` integers.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count",
                 "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (NaN is ignored)."""
        if math.isnan(value):
            return
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations under one lock acquisition.

        Same buckets, sum (added in order, so bit-identical), count,
        min and max as calling :meth:`observe` on each value; NaN is
        ignored.  A handler that settles a 32-entry frame pays one
        lock round trip, not 32.
        """
        values = [value for value in values if value == value]
        if not values:
            return
        bisect_left = bisect.bisect_left
        buckets = self.buckets
        indexes = [bisect_left(buckets, value) for value in values]
        low = min(values)
        high = max(values)
        with self._lock:
            counts = self._counts
            for index in indexes:
                counts[index] += 1
            total = self._sum
            for value in values:
                total += value
            self._sum = total
            self._count += len(values)
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return math.nan
            counts = list(self._counts)
            lo_seen, hi_seen = self._min, self._max
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                # Interpolate inside this bucket, clamped to the
                # observed range (a wide bucket must not report a
                # quantile outside [min, max] of what was seen).
                lower = self.buckets[index - 1] if index > 0 else -math.inf
                upper = self.buckets[index] if index < len(self.buckets) else math.inf
                lower = max(lower, lo_seen)
                upper = min(upper, hi_seen)
                if upper <= lower:
                    return min(max(lower, lo_seen), hi_seen)
                frac = (rank - cumulative) / bucket_count
                return lower + frac * (upper - lower)
            cumulative += bucket_count
        return hi_seen

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, Prometheus-style."""
        with self._lock:
            counts = list(self._counts)
        out = []
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((math.inf, cumulative + counts[-1]))
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self._count} p50={self.p50:.4g}>"


class MetricsRegistry:
    """Thread-safe named registry of counters, gauges and histograms.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create, so
    components can grab instruments by name without coordinating
    construction order.  One registry per component (dispatcher,
    executor, provisioner) keeps names short; exporters merge several
    registries under distinct prefixes.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._lock = threading.Lock()
        self._metrics: dict[str, Any] = {}

    def counter(
        self, name: str, help: str = "", fn: Optional[Callable[[], int]] = None
    ) -> Counter:
        counter = self._get_or_create(name, Counter, help)
        if fn is not None:
            counter._fn = fn
        return counter

    def gauge(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        gauge = self._get_or_create(name, Gauge, help)
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, buckets=buckets, help=help)
                self._metrics[name] = metric
            elif not isinstance(metric, Histogram):
                raise TypeError(f"{name!r} is already a {type(metric).__name__}")
            return metric

    def _get_or_create(self, name: str, cls, help: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(f"{name!r} is already a {type(metric).__name__}")
            return metric

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[Any]:
        """All registered instruments, sorted by name."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> dict[str, float]:
        """Flat ``name -> value`` view (histograms contribute
        ``_count``/``_sum``/``_p50``/``_p90``/``_p99`` entries)."""
        out: dict[str, float] = {}
        for metric in self.metrics():
            name = f"{self.prefix}_{metric.name}" if self.prefix else metric.name
            if isinstance(metric, Histogram):
                out[f"{name}_count"] = metric.count
                out[f"{name}_sum"] = metric.sum
                out[f"{name}_p50"] = metric.p50
                out[f"{name}_p90"] = metric.p90
                out[f"{name}_p99"] = metric.p99
            else:
                out[name] = metric.value
        return out

    def __repr__(self) -> str:
        return f"<MetricsRegistry {self.prefix or '(root)'} n={len(self._metrics)}>"
