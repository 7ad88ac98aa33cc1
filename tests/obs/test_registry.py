"""Unit tests for the typed metrics registry."""

import math
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_values,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("events")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("events").inc(-1)

    def test_thread_safe_under_contention(self):
        c = Counter("events")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_callback_gauge_reads_live(self):
        backing = [1, 2, 3]
        g = Gauge("size", fn=lambda: len(backing))
        assert g.value == 3
        backing.append(4)
        assert g.value == 4


class TestHistogram:
    def test_empty_quantiles_are_nan(self):
        h = Histogram("lat")
        assert math.isnan(h.p50)
        assert math.isnan(h.mean)
        assert h.count == 0

    def test_quantiles_land_in_observed_range(self):
        h = Histogram("lat")
        values = [0.001 * i for i in range(1, 1001)]  # 1ms .. 1s
        for v in values:
            h.observe(v)
        assert h.count == 1000
        assert h.sum == pytest.approx(sum(values))
        # Bucketed estimates: generous tolerance, but must bracket.
        assert 0.3 <= h.p50 <= 0.7
        assert 0.8 <= h.p90 <= 1.0
        assert h.p99 <= max(values)
        assert min(values) <= h.quantile(0.0) <= h.quantile(1.0) <= max(values)

    def test_quantile_clamps_to_observed_extremes(self):
        h = Histogram("lat", buckets=[1.0, 10.0])
        h.observe(3.0)
        h.observe(4.0)
        assert 3.0 <= h.p50 <= 4.0

    def test_nan_observations_ignored(self):
        h = Histogram("lat")
        h.observe(math.nan)
        assert h.count == 0

    def test_bucket_counts_are_cumulative(self):
        h = Histogram("lat", buckets=[1.0, 2.0])
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        pairs = h.bucket_counts()
        assert pairs[0] == (1.0, 1)
        assert pairs[1] == (2.0, 2)
        assert pairs[-1][0] == math.inf
        assert pairs[-1][1] == 3

    def test_observe_many_equals_observing_each(self):
        """One lock round trip per frame must be indistinguishable
        from one per sample — bit-identical sum included."""
        import random

        rng = random.Random(22)
        batches = [
            [],
            [math.nan],
            [0.0042],
            [math.nan, 1e-9, 0.1, math.nan, 299.0, 1e6, 0.1],
            [rng.lognormvariate(-6, 3) for _ in range(500)],
            [0.0001, 0.00025, 300.0],  # exactly on bucket bounds
        ]
        each, many = Histogram("each"), Histogram("many")
        for batch in batches:
            for value in batch:
                each.observe(value)
            many.observe_many(iter(batch))
            assert many.bucket_counts() == each.bucket_counts()
            assert (many.count, many.sum) == (each.count, each.sum)
            assert (many._min, many._max) == (each._min, each._max)
            for q in (0.0, 0.5, 0.9, 0.99, 1.0):
                got, want = many.quantile(q), each.quantile(q)
                assert got == want or (math.isnan(got) and math.isnan(want))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry(prefix="test")
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")

    def test_kind_collision_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_snapshot_is_prefixed_and_flat(self):
        r = MetricsRegistry(prefix="disp")
        r.counter("accepted").inc(3)
        r.histogram("lat").observe(0.5)
        snap = r.snapshot()
        assert snap["disp_accepted"] == 3
        assert snap["disp_lat_count"] == 1
        assert snap["disp_lat_sum"] == pytest.approx(0.5)
        assert "disp_lat_p99" in snap

    def test_unprefixed_snapshot_keys_are_bare(self):
        r = MetricsRegistry()
        r.counter("n").inc()
        assert list(r.snapshot()) == ["n"]


class TestQuantileFromValues:
    def test_empty_is_nan(self):
        assert math.isnan(quantile_from_values([], 0.5))

    def test_exact_median(self):
        assert quantile_from_values([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_interpolates(self):
        assert quantile_from_values([0.0, 1.0], 0.5) == pytest.approx(0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile_from_values([1.0], 1.5)
