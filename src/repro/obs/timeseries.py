"""Rolling-window time series for the live telemetry plane.

The paper's evaluation (§4) is built from *continuous* observation of
dispatcher and executor state — dispatch throughput over time,
utilization, efficiency as a function of task length (Fig. 5) — not
from a single post-mortem dump.  :class:`TimeSeriesStore` is the
dispatcher-side fold target for that observation stream:

* executors piggy-back compact stats deltas on their HEARTBEAT frames
  (the ``stats`` field; see ``docs/PROTOCOL.md``), and the
  provisioner does the same on its STATUS poll;
* the dispatcher's monitor sweep samples its own gauges on the same
  clock;
* every sample lands in a fixed-capacity ring buffer per
  ``(source, key)`` series, so memory stays bounded on endurance runs
  no matter how long the telemetry plane stays up.

Cluster-level gauges (utilization, dispatch rate, efficiency vs task
length) are *derived* at read time from the buffered series — the hot
path only ever appends.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "DISPATCHER_SOURCE",
    "PROVISIONER_SOURCE",
    "EFFICIENCY_TASK_LENGTHS",
    "RingSeries",
    "TimeSeriesStore",
    "efficiency_curve",
]

#: Reserved source names for the dispatcher's own samples and the
#: provisioner's piggy-backed poll stats; everything else is an
#: executor id.
DISPATCHER_SOURCE = "dispatcher"
PROVISIONER_SOURCE = "provisioner"

#: Task lengths (seconds) for the derived efficiency curve — the
#: paper's Figure 5 sweep of efficiency vs task length.
EFFICIENCY_TASK_LENGTHS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Keep at most this many keys per ingested sample (junk-peer guard).
_MAX_KEYS_PER_SAMPLE = 32


def efficiency_curve(
    overhead_per_task_s: float,
    lengths: Sequence[float] = EFFICIENCY_TASK_LENGTHS,
) -> dict[str, float]:
    """Efficiency ``L / (L + overhead)`` for each task length *L*.

    The paper's Figure 5 shape: with a fixed per-task dispatch overhead,
    longer tasks amortise it and efficiency approaches 1.  NaN overhead
    (no settled tasks yet) yields NaN everywhere.
    """
    out: dict[str, float] = {}
    for length in lengths:
        if math.isnan(overhead_per_task_s) or length <= 0:
            out[f"{length:g}s"] = math.nan
        else:
            out[f"{length:g}s"] = length / (length + max(0.0, overhead_per_task_s))
    return out


class RingSeries:
    """One ``(time, value)`` series in a fixed-capacity ring buffer."""

    __slots__ = ("_ring",)

    def __init__(self, capacity: int) -> None:
        self._ring: "deque[tuple[float, float]]" = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self._ring.append((t, value))

    def last(self) -> Optional[tuple[float, float]]:
        return self._ring[-1] if self._ring else None

    def items(self) -> list[tuple[float, float]]:
        return list(self._ring)

    def window(self, seconds: float) -> list[tuple[float, float]]:
        """Samples no older than *seconds* before the newest one."""
        if not self._ring:
            return []
        floor = self._ring[-1][0] - seconds
        return [(t, v) for t, v in self._ring if t >= floor]

    def __len__(self) -> int:
        return len(self._ring)


class TimeSeriesStore:
    """Bounded per-source, per-key rolling series with derived gauges.

    Thread-safe: ``ingest`` is called from the dispatcher's I/O-loop
    thread (heartbeats) and its monitor thread (self-samples), while
    readers (the HTTP status surface) run on request threads.
    """

    def __init__(self, capacity: int = 512, window: float = 5.0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        self.capacity = capacity
        self.window = window
        self._lock = threading.Lock()
        self._series: dict[str, dict[str, RingSeries]] = {}
        self.samples_ingested = 0
        self.sources_forgotten = 0

    # -- writes --------------------------------------------------------------
    def ingest(self, source: str, t: float, sample: Mapping[str, Any]) -> None:
        """Fold one stats sample from *source* at time *t*.

        Non-numeric values are dropped (a junk or future-version peer
        must never poison the store), and at most
        ``_MAX_KEYS_PER_SAMPLE`` keys are kept per sample.
        """
        with self._lock:
            by_key = self._series.setdefault(source, {})
            kept = 0
            for key, value in sample.items():
                if kept >= _MAX_KEYS_PER_SAMPLE:
                    break
                if not isinstance(key, str):
                    continue
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                if not math.isfinite(value):
                    continue
                series = by_key.get(key)
                if series is None:
                    series = by_key[key] = RingSeries(self.capacity)
                series.append(t, float(value))
                kept += 1
            if kept:
                self.samples_ingested += 1

    def forget(self, source: str) -> bool:
        """Drop every series of *source* (executor evicted/deregistered).

        This is what keeps the status surface convergent: a dead
        executor's gauges disappear instead of sticking at their last
        values forever.
        """
        with self._lock:
            if self._series.pop(source, None) is None:
                return False
            self.sources_forgotten += 1
            return True

    # -- reads ---------------------------------------------------------------
    def sources(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def series(self, source: str, key: str) -> list[tuple[float, float]]:
        with self._lock:
            by_key = self._series.get(source)
            if by_key is None or key not in by_key:
                return []
            return by_key[key].items()

    def latest(self, source: str) -> dict[str, float]:
        """Newest value per key, plus ``_t`` (newest sample time)."""
        with self._lock:
            by_key = self._series.get(source)
            if not by_key:
                return {}
            out: dict[str, float] = {}
            newest = -math.inf
            for key, series in by_key.items():
                last = series.last()
                if last is None:
                    continue
                out[key] = last[1]
                newest = max(newest, last[0])
            if out:
                out["_t"] = newest
            return out

    def rate(self, source: str, key: str, window: Optional[float] = None) -> float:
        """Per-second rate of a cumulative counter over the window.

        Computed from the oldest and newest samples inside the window;
        NaN when fewer than two samples (or zero elapsed time) exist.
        Negative deltas (a source restarted and its counter reset)
        report NaN rather than a nonsense negative rate.
        """
        window = self.window if window is None else window
        with self._lock:
            by_key = self._series.get(source)
            if by_key is None or key not in by_key:
                return math.nan
            points = by_key[key].window(window)
        if len(points) < 2:
            return math.nan
        (t0, v0), (t1, v1) = points[0], points[-1]
        if t1 <= t0 or v1 < v0:
            return math.nan
        return (v1 - v0) / (t1 - t0)

    # -- derived cluster gauges ----------------------------------------------
    def utilization(self) -> float:
        """Busy executors / registered executors, from the newest
        dispatcher sample; NaN before the first sample or with an
        empty pool."""
        latest = self.latest(DISPATCHER_SOURCE)
        registered = latest.get("registered", 0.0)
        if not registered:
            return math.nan
        return latest.get("busy", 0.0) / registered

    def dispatch_rate(self, window: Optional[float] = None) -> float:
        """Settled tasks per second over the rolling window."""
        return self.rate(DISPATCHER_SOURCE, "completed", window)

    def overhead_per_task(self) -> float:
        """Mean non-execution seconds per settled task.

        ``(Σ e2e latency − Σ exec time) / settled`` from the newest
        dispatcher sample — the per-task dispatch overhead that the
        efficiency curve amortises.
        """
        latest = self.latest(DISPATCHER_SOURCE)
        count = latest.get("e2e_count", 0.0)
        if not count:
            return math.nan
        overhead = latest.get("e2e_sum_s", 0.0) - latest.get("exec_sum_s", 0.0)
        return max(0.0, overhead) / count

    def cluster(self) -> dict[str, Any]:
        """The derived cluster-level gauges, one JSON-friendly dict."""
        latest = self.latest(DISPATCHER_SOURCE)
        overhead = self.overhead_per_task()
        return {
            "utilization": self.utilization(),
            "dispatch_rate_tasks_per_s": self.dispatch_rate(),
            "queued": latest.get("queued", 0.0),
            "registered": latest.get("registered", 0.0),
            "busy": latest.get("busy", 0.0),
            "overhead_per_task_s": overhead,
            "efficiency_vs_task_length": efficiency_curve(overhead),
        }

    def __repr__(self) -> str:
        with self._lock:
            n_series = sum(len(v) for v in self._series.values())
            return (f"<TimeSeriesStore sources={len(self._series)} "
                    f"series={n_series} ingested={self.samples_ingested}>")
