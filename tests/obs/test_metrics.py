"""Tests for the metric instruments and the registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)


class TestGauge:
    def test_set(self):
        g = Gauge("depth")
        g.set(4)
        assert g.value == 4.0

    def test_callback_backed(self):
        state = {"n": 7}
        g = Gauge("live", fn=lambda: state["n"])
        assert g.value == 7
        state["n"] = 9
        assert g.value == 9

    def test_callback_gauge_rejects_set(self):
        g = Gauge("live", fn=lambda: 1)
        with pytest.raises(ValueError, match="callback-backed"):
            g.set(5)


class TestHistogram:
    def test_buckets_and_stats(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3
        assert h.total == 55.5

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(5.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("a")

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("gateway.http_errors_total").inc(3)
        reg.gauge("net.flows-active", "in-flight\nflows, C:\\net",
                  fn=lambda: float("nan"))
        h = reg.histogram("rpc.lat_s", buckets=(0.5, 2.0))
        for value in (0.1, 0.4, 1.0, 7.0):
            h.observe(value)
        reg.histogram("empty_s", buckets=(1.0,))
        assert reg.render_prometheus() == (
            "# TYPE empty_s histogram\n"
            'empty_s_bucket{le="1.0"} 0\n'
            'empty_s_bucket{le="+Inf"} 0\n'
            "empty_s_sum 0.0\n"
            "empty_s_count 0\n"
            "# TYPE gateway_http_errors_total counter\n"
            "gateway_http_errors_total 3.0\n"
            "# HELP net_flows_active in-flight\\nflows, C:\\\\net\n"
            "# TYPE net_flows_active gauge\n"
            "net_flows_active NaN\n"
            "# TYPE rpc_lat_s histogram\n"
            'rpc_lat_s_bucket{le="0.5"} 2\n'
            'rpc_lat_s_bucket{le="2.0"} 3\n'
            'rpc_lat_s_bucket{le="+Inf"} 4\n'
            "rpc_lat_s_sum 8.5\n"
            "rpc_lat_s_count 4\n")

    def test_render_prometheus_empty_registry(self):
        assert MetricsRegistry().render_prometheus() == ""

