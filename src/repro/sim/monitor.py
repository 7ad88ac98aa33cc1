"""Lightweight instrumentation probes for simulation experiments.

Every figure in the paper is a time series (queue length, throughput,
busy executors, ...).  These probes record ``(time, value)`` pairs with
negligible overhead so full-scale runs (2 M tasks) stay fast, and offer
the post-processing helpers the figures need (per-second throughput
samples, 60-sample moving averages, step integration for utilization).
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

from repro.obs import Histogram, quantile_from_values

__all__ = ["TimeSeries", "Gauge", "Counter", "moving_average"]


class TimeSeries:
    """An append-only series of ``(time, value)`` observations."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one observation.  Times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"observation at t={time} precedes last t={self.times[-1]} in {self.name!r}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    @property
    def last(self) -> float:
        """Most recent value (0.0 when empty)."""
        return self.values[-1] if self.values else 0.0

    def max(self) -> float:
        """Largest recorded value (0.0 when empty)."""
        return max(self.values, default=0.0)

    def value_at(self, time: float) -> float:
        """Step-interpolated value at *time* (0.0 before first sample)."""
        index = bisect.bisect_right(self.times, time) - 1
        return self.values[index] if index >= 0 else 0.0

    def integrate(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Integral of the step function over [start, end].

        Used for resource accounting: integrating a busy-executor gauge
        yields CPU-seconds consumed.
        """
        if not self.times:
            return 0.0
        if start is None:
            start = self.times[0]
        if end is None:
            end = self.times[-1]
        if end <= start:
            return 0.0
        total = 0.0
        prev_t = start
        prev_v = self.value_at(start)
        lo = bisect.bisect_right(self.times, start)
        for i in range(lo, len(self.times)):
            t = self.times[i]
            if t >= end:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, self.values[i]
        total += prev_v * (end - prev_t)
        return total

    def mean(self) -> float:
        """Time-weighted mean over the recorded span."""
        if len(self.times) < 2:
            return self.last
        span = self.times[-1] - self.times[0]
        if span <= 0:
            return self.last
        return self.integrate() / span

    def percentile(self, p: float) -> float:
        """Sample percentile of the recorded values (``p`` in [0, 100]).

        Exact (every sample is kept), but computed with the shared
        quantile definition from :mod:`repro.obs` so sim-plane tables
        agree with the live plane's histogram estimates.
        """
        return quantile_from_values(self.values, p / 100.0)

    def to_histogram(self, buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Bridge this series into an obs-plane fixed-bucket histogram.

        Useful to export sim probes through the same Prometheus/JSONL
        exporters the live plane uses.
        """
        name = self.name or "timeseries"
        histogram = Histogram(name) if buckets is None else Histogram(name, buckets=buckets)
        for value in self.values:
            histogram.observe(value)
        return histogram


class Gauge(TimeSeries):
    """A :class:`TimeSeries` with increment/decrement convenience.

    Tracks an instantaneous integer quantity (queue length, busy
    executors) and records a sample on every change.
    """

    def __init__(self, name: str = "", initial: float = 0.0) -> None:
        super().__init__(name)
        self._current = initial

    @property
    def current(self) -> float:
        return self._current

    def set(self, time: float, value: float) -> None:
        """Record an absolute value."""
        self._current = value
        self.record(time, value)

    def add(self, time: float, delta: float) -> None:
        """Record a relative change."""
        self.set(time, self._current + delta)


class Counter:
    """A monotonic event counter with optional per-bucket sampling.

    ``throughput_samples(interval)`` converts the raw event times into
    the "raw samples (once per sec)" series the paper plots in Figure 8.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []

    def tick(self, time: float) -> None:
        """Record one occurrence at *time*."""
        if self.times and time < self.times[-1]:
            raise ValueError("occurrences must be recorded in time order")
        self.times.append(time)

    @property
    def count(self) -> int:
        return len(self.times)

    def rate(self) -> float:
        """Mean occurrences per time unit over the observed span."""
        if len(self.times) < 2:
            return 0.0
        span = self.times[-1] - self.times[0]
        return (len(self.times) - 1) / span if span > 0 else 0.0

    def throughput_samples(
        self, interval: float = 1.0, start: Optional[float] = None, end: Optional[float] = None
    ) -> TimeSeries:
        """Bucket occurrences into fixed windows; value = count/interval."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        series = TimeSeries(f"{self.name}/rate")
        if not self.times and (start is None or end is None):
            return series
        t0 = self.times[0] if start is None else start
        t1 = self.times[-1] if end is None else end
        if t1 < t0:
            raise ValueError("end precedes start")
        lo = bisect.bisect_left(self.times, t0)
        edge = t0
        while edge < t1 or edge == t0:
            nxt = edge + interval
            hi = bisect.bisect_left(self.times, nxt, lo)
            series.record(edge, (hi - lo) / interval)
            lo = hi
            edge = nxt
        return series


def moving_average(series: TimeSeries, window: int) -> TimeSeries:
    """Simple trailing moving average over the last *window* samples.

    Matches the paper's Figure 8 processing: a 60-sample moving average
    over 1-second raw throughput samples.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    out = TimeSeries(f"{series.name}/ma{window}")
    acc = 0.0
    values = series.values
    for i, t in enumerate(series.times):
        acc += values[i]
        if i >= window:
            acc -= values[i - window]
        out.record(t, acc / min(i + 1, window))
    return out
