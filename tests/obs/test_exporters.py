"""Exporter tests: Prometheus text and JSONL round-trips."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    SpanCollector,
    atomic_writer,
    dump_observability,
    read_spans_jsonl,
    render_prometheus,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.obs.stats import DispatcherStats, ExecutorStats, ProvisionerStats


def make_registry():
    r = MetricsRegistry(prefix="disp")
    r.counter("accepted", help="Tasks accepted").inc(7)
    r.gauge("queued").set(3)
    h = r.histogram("lat", buckets=[0.1, 1.0])
    h.observe(0.05)
    h.observe(0.5)
    return r


def make_collector():
    c = SpanCollector()
    c.begin("t1")
    c.record("t1", "submit", 0.0, client="c1")
    c.record("t1", "enqueue", 0.01, attempt=1)
    return c


class TestPrometheus:
    def test_counter_gauge_histogram_exposition(self):
        text = render_prometheus(make_registry())
        # Counters carry the conventional _total suffix on every line
        # of the family (HELP, TYPE, sample).
        assert "# HELP falkon_disp_accepted_total Tasks accepted" in text
        assert "# TYPE falkon_disp_accepted_total counter" in text
        assert "falkon_disp_accepted_total 7" in text
        assert "# TYPE falkon_disp_queued gauge" in text
        assert "# TYPE falkon_disp_lat histogram" in text
        assert 'falkon_disp_lat_bucket{le="0.1"} 1' in text
        assert 'falkon_disp_lat_bucket{le="1.0"} 2' in text
        assert 'falkon_disp_lat_bucket{le="+Inf"} 2' in text
        assert "falkon_disp_lat_count 2" in text

    def test_multiple_registries_keep_distinct_prefixes(self):
        a = MetricsRegistry(prefix="dispatcher")
        a.counter("n").inc()
        b = MetricsRegistry(prefix="executor")
        b.counter("n").inc(2)
        text = render_prometheus(a, b)
        assert "falkon_dispatcher_n_total 1" in text
        assert "falkon_executor_n_total 2" in text

    def test_exposition_parses_as_format_0_0_4(self):
        """Structural conformance: parse the rendered text the way a
        scraper would and check the invariants the format promises."""
        text = render_prometheus(make_registry())
        assert text.endswith("\n")
        types: dict[str, str] = {}
        samples: dict[str, float] = {}
        for line in text.splitlines():
            assert line == line.strip()  # no stray indentation
            if line.startswith("# TYPE "):
                _, _, name, mtype = line.split(" ", 3)
                assert mtype in ("counter", "gauge", "histogram")
                assert name not in types, "duplicate TYPE line"
                types[name] = mtype
                continue
            if line.startswith("# HELP "):
                continue
            assert not line.startswith("#"), f"unknown comment: {line}"
            name_and_labels, value = line.rsplit(" ", 1)
            name = name_and_labels.split("{", 1)[0]
            samples[name_and_labels] = float(value)
            # Every sample belongs to a declared family.
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    base = name[: -len(suffix)]
            assert base in types, f"sample {name} has no TYPE declaration"
        # Counter families end in _total; histogram buckets are
        # cumulative and close with +Inf == _count.
        for name, mtype in types.items():
            if mtype == "counter":
                assert name.endswith("_total")
            if mtype == "histogram":
                buckets = [
                    (labels, value) for labels, value in samples.items()
                    if labels.startswith(f"{name}_bucket{{")
                ]
                values = [value for _, value in buckets]
                assert values == sorted(values), "buckets must be cumulative"
                inf = next(v for l, v in buckets if 'le="+Inf"' in l)
                assert inf == samples[f"{name}_count"]


class TestJsonl:
    def test_span_round_trip(self, tmp_path):
        collector = make_collector()
        path = tmp_path / "spans.jsonl"
        written = write_spans_jsonl(path, collector)
        assert written == 2
        spans = read_spans_jsonl(path)
        assert spans == collector.all_spans()
        assert spans[0].get("client") == "c1"

    def test_metrics_jsonl_nan_becomes_null(self, tmp_path):
        r = MetricsRegistry(prefix="disp")
        r.histogram("lat")  # empty: p50 is NaN
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(path, r)
        rows = {row["name"]: row["value"]
                for row in map(json.loads, path.read_text().splitlines())}
        assert rows["disp_lat_p50"] is None
        assert rows["disp_lat_count"] == 0

    def test_dump_observability_writes_all_three(self, tmp_path):
        out = tmp_path / "obs"
        paths = dump_observability(out, [make_registry()], make_collector())
        names = sorted(p.rsplit("/", 1)[-1] for p in paths)
        assert names == ["metrics.jsonl", "metrics.prom", "spans.jsonl"]
        for p in paths:
            assert (tmp_path / "obs" / p.rsplit("/", 1)[-1]).exists()


class TestAtomicWrites:
    def test_interrupted_write_preserves_previous_file(self, tmp_path):
        """A writer that dies mid-write must leave the old dump intact
        and no temp litter behind."""
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"name": "good", "value": 1}\n')

        class Boom(RuntimeError):
            pass

        def rows():
            yield {"name": "partial", "value": 2}
            raise Boom("crash mid-dump")

        from repro.obs.exporters import _write_lines

        with pytest.raises(Boom):
            _write_lines(path, rows())
        assert path.read_text() == '{"name": "good", "value": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]

    def test_atomic_writer_interrupt_mid_stream(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous\n")
        with pytest.raises(KeyboardInterrupt):
            with atomic_writer(path) as fh:
                fh.write("half a line")
                raise KeyboardInterrupt  # even BaseException cleans up
        assert path.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_atomic_writer_success_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_writer(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [path]


class TestTypedStats:
    def test_dispatcher_stats_round_trip_ignores_unknown_keys(self):
        stats = DispatcherStats(queued=2, accepted=5, completed=3)
        data = dict(stats.as_dict(), future_field=1)
        parsed = DispatcherStats.from_dict(data)
        assert parsed.queued == 2
        assert parsed.accepted == 5

    def test_executor_and_provisioner_snapshots(self):
        e = ExecutorStats(executor_id="x1", tasks_executed=9)
        assert e.as_dict()["tasks_executed"] == 9
        p = ProvisionerStats(pool_size=2, allocations=5)
        assert p.allocations == 5
