"""The unified observability plane.

One layer shared by the simulation and live planes:

* :mod:`repro.obs.registry` — typed, thread-safe metrics (counters,
  gauges, fixed-bucket histograms with p50/p90/p99).
* :mod:`repro.obs.trace` — end-to-end task tracing: the span chain
  ``submit → enqueue → notify → pull → exec → result → ack`` per task
  attempt and its check, read from the dispatcher's flight ring.
* :mod:`repro.obs.stats` — frozen typed snapshots replacing the old
  stringly-keyed ``stats()`` dicts.
* :mod:`repro.obs.exporters` — Prometheus-style text and JSON-lines
  dumps consumed by ``repro live --metrics-out`` / ``repro trace``.
* :mod:`repro.obs.httpd` — the stdlib HTTP scrape/status surface
  (``/metrics``, ``/status``, ``/tasks/<id>``) behind ``repro live
  --http-port`` and ``repro top``; the dispatcher builds ``/status``
  at read time from its registry and session tables.
* :mod:`repro.obs.flight` — per-component flight recorders: bounded
  columnar event rings (the dispatcher's holds its task transitions)
  flushed to versioned JSON dumps on crash, SIGTERM, oracle violation
  or ``POST /debug/dump``, and followed as JSONL for ``repro events
  replay`` timeline reconstruction.
* :mod:`repro.obs.watchdog` — stall detection, contended-lock timing
  and the named-check panel behind ``/healthz``'s ``degraded`` field.
* :mod:`repro.obs.doctor` — the ``repro doctor`` dump analyzer:
  timelines, gap flagging, cross-shard task correlation.

See ``docs/OBSERVABILITY.md`` for the span schema and metric names.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS,
    quantile_from_values,
)
from repro.obs.trace import SPAN_ORDER, Span
from repro.obs.stats import (
    StatsSnapshot,
    DispatcherStats,
    ExecutorStats,
    ProvisionerStats,
)
from repro.obs.exporters import (
    atomic_writer,
    render_prometheus,
    write_prometheus,
    write_spans_jsonl,
    write_metrics_jsonl,
    read_spans_jsonl,
    dump_observability,
)
from repro.obs.httpd import StatusServer
from repro.obs.flight import (
    FLIGHT_DUMP_VERSION,
    FlightRecorder,
    SpanCollector,
    flight_dump_path,
    load_flight_dumps,
    read_events_jsonl,
    read_flight_dump,
    replay_summary,
)
from repro.obs.watchdog import StallDetector, WatchdogPanel
from repro.obs.doctor import analyze, render_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "quantile_from_values",
    "SPAN_ORDER",
    "Span",
    "SpanCollector",
    "StatsSnapshot",
    "DispatcherStats",
    "ExecutorStats",
    "ProvisionerStats",
    "atomic_writer",
    "render_prometheus",
    "write_prometheus",
    "write_spans_jsonl",
    "write_metrics_jsonl",
    "read_spans_jsonl",
    "dump_observability",
    "StatusServer",
    "read_events_jsonl",
    "replay_summary",
    "FLIGHT_DUMP_VERSION",
    "FlightRecorder",
    "flight_dump_path",
    "load_flight_dumps",
    "read_flight_dump",
    "StallDetector",
    "WatchdogPanel",
    "analyze",
    "render_report",
]
