"""Unit tests for the metrics registry and Prometheus rendering."""

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("c", kind="x")
        b = registry.counter("c", kind="x")
        assert a is b
        assert registry.counter("c", kind="y") is not a

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            hist.observe(value)
        samples = dict(hist.samples())
        assert samples['h_bucket{le="1"}'] == 2
        assert samples['h_bucket{le="10"}'] == 3
        assert samples['h_bucket{le="+Inf"}'] == 4
        assert samples["h_sum"] == pytest.approx(106.2)
        assert samples["h_count"] == 4

    def test_percentile_from_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            hist.observe(value)
        assert hist.percentile(0.5) == pytest.approx(2.0)
        assert hist.percentile(1.0) == pytest.approx(4.0)
        assert Histogram("e", "", (), buckets=(1.0,)).percentile(0.5) == 0.0

    def test_percentile_zero_and_negative_quantile(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        # q <= 0 asks for "the value no observation is below": 0.0,
        # never a bucket bound.
        assert hist.percentile(0.0) == 0.0
        assert hist.percentile(-1.0) == 0.0

    def test_percentile_clamps_oversized_quantile(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        assert hist.percentile(5.0) == hist.percentile(1.0) == 1.0

    def test_percentile_mass_in_overflow_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)
        # All mass beyond the last bound: no finite bound covers the
        # target, so the answer is +Inf, not the last bound.
        assert hist.percentile(0.5) == float("inf")
        hist.observe(0.5)
        assert hist.percentile(0.5) == 1.0
        assert hist.percentile(1.0) == float("inf")


class TestPrometheusRendering:
    def test_golden_output(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_gc_collections_total", "Collections by kind.", kind="nursery"
        ).inc(3)
        registry.counter(
            "repro_gc_collections_total", "Collections by kind.", kind="full"
        ).inc()
        registry.gauge("repro_os_pool_pages", "Pages per pool.", pool="perfect").set(12)
        hist = registry.histogram("repro_gc_pause_ms", "GC pauses.", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(20.0)
        expected = (
            '# HELP repro_gc_collections_total Collections by kind.\n'
            '# TYPE repro_gc_collections_total counter\n'
            'repro_gc_collections_total{kind="full"} 1\n'
            'repro_gc_collections_total{kind="nursery"} 3\n'
            '# HELP repro_gc_pause_ms GC pauses.\n'
            '# TYPE repro_gc_pause_ms histogram\n'
            'repro_gc_pause_ms_bucket{le="1"} 1\n'
            'repro_gc_pause_ms_bucket{le="10"} 1\n'
            'repro_gc_pause_ms_bucket{le="+Inf"} 2\n'
            'repro_gc_pause_ms_sum 20.5\n'
            'repro_gc_pause_ms_count 2\n'
            '# HELP repro_os_pool_pages Pages per pool.\n'
            '# TYPE repro_os_pool_pages gauge\n'
            'repro_os_pool_pages{pool="perfect"} 12\n'
        )
        assert registry.render_prometheus() == expected

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_to_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        dump = registry.to_dict()
        assert dump["c"][0]["value"] == 2
        assert dump["h"][0]["buckets"] == {"1": 1, "+Inf": 0}
        assert dump["h"][0]["count"] == 1

