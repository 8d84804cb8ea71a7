"""Tests for the metric instruments, registry, and sampler."""

import math

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sampler,
)
from repro.sim import Simulator


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
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(4)
        g.add(-1)
        assert g.value == 3.0

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
        assert h.mean == pytest.approx(55.5 / 3)
        assert h.min == 0.5 and h.max == 50.0

    def test_empty_mean_is_nan(self):
        assert math.isnan(Histogram("h").mean)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(5.0, 1.0))

    def test_small_sample_quantiles_exact(self):
        h = Histogram("h")
        h.observe(3.0)
        h.observe(1.0)
        assert h.quantile(0.5) == pytest.approx(1.0, abs=2.0)

    def test_p2_median_converges(self):
        rng = np.random.default_rng(1)
        h = Histogram("h")
        data = rng.normal(loc=100.0, scale=10.0, size=5000)
        for v in data:
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(
            float(np.median(data)), rel=0.05)
        assert h.quantile(0.9) == pytest.approx(
            float(np.percentile(data, 90)), rel=0.05)

    def test_p2_uniform_tail(self):
        rng = np.random.default_rng(2)
        h = Histogram("h")
        for v in rng.uniform(0.0, 1.0, size=10000):
            h.observe(float(v))
        assert h.quantile(0.99) == pytest.approx(0.99, abs=0.03)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("a")

    def test_render_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("zz").inc()
        reg.gauge("aa").set(1)
        text = reg.render()
        assert text.index("aa") < text.index("zz")

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("gateway.http_errors_total").inc(3)
        reg.gauge("net.flows-active", fn=lambda: float("nan"))
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


class TestSampler:
    def test_samples_gauges_on_cadence(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.gauge("clock", fn=lambda: sim.now)
        Sampler(sim, reg, period_s=10.0)
        sim.run(until=35.0)
        series = reg.series["clock"]
        assert [s.time for s in series] == [0.0, 10.0, 20.0, 30.0]
        assert [s.value for s in series] == [0.0, 10.0, 20.0, 30.0]

    def test_stop_halts_sampling(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.gauge("g").set(1)
        sampler = Sampler(sim, reg, period_s=5.0)
        sim.run(until=11.0)
        sampler.stop()
        sim.run(until=50.0)
        assert len(reg.series["g"]) == 3  # t=0, 5, 10 only

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Sampler(Simulator(), MetricsRegistry(), period_s=0.0)
