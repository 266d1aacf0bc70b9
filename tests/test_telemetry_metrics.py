"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import threading

import pytest

from repro.telemetry.metrics import (
    DEFAULT_COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter().inc(-1)

    def test_callback_counter_reads_live_value(self):
        box = {"n": 0}
        c = Counter(callback=lambda: box["n"])
        assert c.value == 0
        box["n"] = 7
        assert c.value == 7


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == pytest.approx(12.0)

    def test_callback_gauge(self):
        items = [1, 2, 3]
        g = Gauge(callback=lambda: len(items))
        assert g.value == 3
        items.append(4)
        assert g.value == 4


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper(self):
        h = Histogram(buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 1.1, 5.0, 9.9, 10.0, 11.0):
            h.observe(v)
        # <=1: 0.5, 1.0 | <=5: 1.1, 5.0 | <=10: 9.9, 10.0 | over: 11.0
        assert h.bucket_counts() == [2, 2, 2, 1]
        assert h.count == 7
        assert h.sum == pytest.approx(0.5 + 1.0 + 1.1 + 5.0 + 9.9
                                      + 10.0 + 11.0)

    def test_rejects_unsorted_or_duplicate_buckets(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="distinct"):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram(buckets=(10.0, 20.0))
        for _ in range(10):
            h.observe(15.0)  # all land in the (10, 20] bucket
        # p50 interpolates half-way through the second bucket.
        assert h.quantile(0.5) == pytest.approx(15.0)
        assert h.quantile(0.0) == pytest.approx(10.0)

    def test_quantile_overflow_clamps_to_last_bound(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(1.0)

    def test_quantile_empty_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram().quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "a counter")
        b = reg.counter("x_total")
        assert a is b

    def test_distinct_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", route="/a")
        b = reg.counter("hits", route="/b")
        assert a is not b
        a.inc(2)
        snap = reg.snapshot()
        assert snap.value("hits", route="/a") == 2
        assert snap.value("hits", route="/b") == 0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("r", x="1", y="2")
        b = reg.counter("r", y="2", x="1")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("dual")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("dual")

    def test_snapshot_find_and_value(self):
        reg = MetricsRegistry()
        reg.counter("n_total", "help").inc(3)
        snap = reg.snapshot()
        sample = snap.find("n_total")
        assert sample is not None
        assert sample.kind == "counter"
        assert sample.value == 3
        assert snap.find("missing") is None
        assert snap.value("missing") == 0.0

    def test_disabled_registry_hands_out_shared_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_COUNTER
        assert reg.gauge("b") is NULL_GAUGE
        assert reg.histogram("c") is NULL_HISTOGRAM
        reg.counter("a").inc()
        reg.gauge("b").set(5)
        reg.histogram("c").observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0
        assert reg.snapshot().samples == []

    def test_thread_safety_under_concurrent_updates(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        h = reg.histogram("t_seconds", buckets=DEFAULT_COUNT_BUCKETS)
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for i in range(1000):
                c.inc()
                h.observe(i % 7)
                # Lazy resolution from worker threads must be safe too.
                reg.counter("n_total").inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8 * 1000 * 2
        assert h.count == 8 * 1000
        assert sum(h.bucket_counts()) == 8 * 1000


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests", route="/x").inc(3)
        reg.gauge("depth", "Queue depth").set(2)
        text = reg.to_prometheus_text()
        assert "# HELP req_total Requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{route="/x"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "Latency", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = reg.to_prometheus_text()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 11" in text
        assert "lat_count 3" in text

    def test_help_type_emitted_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("f_total", "fam", a="1").inc()
        reg.counter("f_total", "fam", a="2").inc()
        text = reg.to_prometheus_text()
        assert text.count("# TYPE f_total counter") == 1

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("e_total", q='say "hi"\nback\\slash').inc()
        text = reg.to_prometheus_text()
        assert r'q="say \"hi\"\nback\\slash"' in text

    def test_non_finite_gauges_render(self):
        # A replica that has never synced reports infinite lag.
        reg = MetricsRegistry()
        reg.gauge("lag", "Lag", callback=lambda: float("inf"))
        reg.gauge("floor", "Floor", callback=lambda: float("-inf"))
        reg.gauge("ratio", "Ratio", callback=lambda: float("nan"))
        text = reg.to_prometheus_text()
        assert "lag +Inf" in text
        assert "floor -Inf" in text
        assert "ratio NaN" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus_text() == ""
