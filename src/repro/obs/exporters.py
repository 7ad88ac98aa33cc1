"""Exporters: Prometheus-style text and JSON-lines dumps.

Two formats, one source of truth (a :class:`~repro.obs.registry.MetricsRegistry`
plus an optional :class:`~repro.obs.flight.FlightRecorder` holding span chains):

* :func:`render_prometheus` — the ``text/plain; version=0.0.4``
  exposition format (``# TYPE`` lines, cumulative ``_bucket{le=...}``
  histogram series), written to a file so a scraper or a human can
  consume live-plane metrics without new dependencies.
* :func:`write_spans_jsonl` / :func:`write_metrics_jsonl` — one JSON
  object per line; ``repro trace <task-id>`` and the experiment
  harnesses read these back.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from typing import Iterable, Iterator, Optional, TextIO, Union

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.flight import FlightRecorder
from repro.obs.trace import Span

__all__ = [
    "atomic_writer",
    "render_prometheus",
    "write_prometheus",
    "write_spans_jsonl",
    "write_metrics_jsonl",
    "read_spans_jsonl",
    "dump_observability",
]


@contextlib.contextmanager
def atomic_writer(path: Union[str, "os.PathLike[str]"]) -> Iterator[TextIO]:
    """Open a temp file next to *path*; rename over it only on success.

    A crash (or any exception) mid-write leaves the previous file
    intact and removes the temp file — a reader can never observe a
    truncated dump.  The rename is `os.replace`, atomic on POSIX when
    source and target share a filesystem (guaranteed here: the temp
    file lives in the target's directory).
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    os.replace(tmp_path, path)


def _sanitize(name: str) -> str:
    """Prometheus metric names: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = "".join(c if c.isalnum() or c in "_:" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(*registries: MetricsRegistry, namespace: str = "falkon") -> str:
    """Render every instrument of *registries* in exposition format.

    Conformance notes (``text/plain; version=0.0.4``): every family
    gets ``# HELP``/``# TYPE`` lines; counters are exposed under the
    conventional ``_total`` suffix; histograms emit the cumulative
    ``_bucket{le=...}`` series (with the implicit ``+Inf`` bucket)
    plus ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    for registry in registries:
        prefix = _sanitize(f"{namespace}_{registry.prefix}" if registry.prefix else namespace)
        for metric in registry.metrics():
            name = _sanitize(f"{prefix}_{metric.name}")
            if isinstance(metric, Counter):
                # The exposition convention: cumulative counters carry
                # a _total suffix (the registry name stays bare).
                name = f"{name}_total"
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_format_value(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_format_value(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.append(f"# TYPE {name} histogram")
                for bound, cumulative in metric.bucket_counts():
                    le = "+Inf" if math.isinf(bound) else _format_value(float(bound))
                    lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(
    path: Union[str, "os.PathLike[str]"], *registries: MetricsRegistry,
    namespace: str = "falkon",
) -> str:
    """Write the exposition text to *path* atomically; returns the path."""
    text = render_prometheus(*registries, namespace=namespace)
    with atomic_writer(path) as fh:
        fh.write(text)
    return os.fspath(path)


def _write_lines(target: Union[str, "os.PathLike[str]", TextIO], rows: Iterable[dict]) -> int:
    count = 0

    def emit(fh: TextIO) -> None:
        nonlocal count
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            count += 1

    if hasattr(target, "write"):
        emit(target)  # type: ignore[arg-type]
    else:
        # Atomic: a crash mid-dump (or a row generator raising) must
        # never leave a truncated JSONL file where a good one stood.
        with atomic_writer(target) as fh:
            emit(fh)
    return count


def write_spans_jsonl(
    target: Union[str, "os.PathLike[str]", TextIO],
    collector: FlightRecorder,
) -> int:
    """Dump every span chain in *collector* as one JSON object per line."""
    return _write_lines(target, (span.to_dict() for span in collector.all_spans()))


def write_metrics_jsonl(
    target: Union[str, "os.PathLike[str]", TextIO],
    *registries: MetricsRegistry,
) -> int:
    """Dump a flat metric snapshot, one ``{"name":..., "value":...}`` per line."""
    rows = (
        {"name": name, "value": None if isinstance(value, float) and math.isnan(value) else value}
        for registry in registries
        for name, value in registry.snapshot().items()
    )
    return _write_lines(target, rows)


def read_spans_jsonl(path: Union[str, "os.PathLike[str]"]) -> list[Span]:
    """Parse a spans dump back into :class:`Span` records."""
    spans: list[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            spans.append(
                Span(
                    trace_id=data["trace_id"],
                    span_id=data["span_id"],
                    parent_id=data.get("parent_id"),
                    name=data["name"],
                    task_id=data["task_id"],
                    attempt=data.get("attempt", 0),
                    start=data["start"],
                    end=data.get("end", data["start"]),
                    attrs=tuple(sorted(data.get("attrs", {}).items())),
                )
            )
    return spans


def dump_observability(
    out_dir: Union[str, "os.PathLike[str]"],
    registries: Iterable[MetricsRegistry],
    collector: Optional[FlightRecorder] = None,
    namespace: str = "falkon",
) -> list[str]:
    """Write ``metrics.prom``, ``metrics.jsonl`` and (when a collector
    is given) ``spans.jsonl`` under *out_dir*; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    registries = list(registries)
    paths = [
        write_prometheus(os.path.join(out_dir, "metrics.prom"), *registries,
                         namespace=namespace),
    ]
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    write_metrics_jsonl(metrics_path, *registries)
    paths.append(metrics_path)
    if collector is not None:
        spans_path = os.path.join(out_dir, "spans.jsonl")
        write_spans_jsonl(spans_path, collector)
        paths.append(spans_path)
    return paths
