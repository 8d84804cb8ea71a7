"""Tests for the metric instruments and the registry."""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.gateway.server import RPC_BUCKETS


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
        assert h.mean == pytest.approx(55.5 / 3)
        assert h.min == 0.5 and h.max == 50.0

    def test_empty_mean_is_nan(self):
        assert math.isnan(Histogram("h").mean)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(5.0, 1.0))

    def test_quantile_interpolates_inside_its_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 3.5):
            h.observe(v)
        # rank 2.5 of 5 is 1.5 into the (1, 2] bucket's two: 1 + 1 * 1.5 / 2.
        assert h.quantile(0.5) == pytest.approx(1.75)
        # rank 4.5 is 1.5 into the (2, 4] bucket's two: 2 + 2 * 1.5 / 2.
        assert h.quantile(0.9) == pytest.approx(3.5)

    def test_quantile_is_clamped_to_what_was_observed(self):
        h = Histogram("h", buckets=(10.0, 100.0))
        for v in (20.0, 21.0, 22.0, 23.0):
            h.observe(v)
        # Interpolation alone reads 10 + 90 * 3.6 / 4 = 91 and
        # 10 + 90 * 0.4 / 4 = 19.
        assert h.quantile(0.9) == 23.0
        assert h.quantile(0.1) == 20.0
        first = Histogram("h", buckets=(10.0,))
        for v in (2.0, 10.0):
            first.observe(v)
        # The first bucket starts at the smallest observation, not at 0.
        assert first.quantile(0.5) == pytest.approx(6.0)

    def test_a_single_observation_reads_as_itself(self):
        for value in (-3.0, 0.0, 0.3, 7.0, 5000.0):
            h = Histogram("h")
            h.observe(value)
            assert [h.quantile(q) for q in metrics.QUANTILES] == [value] * 3

    def test_a_rank_in_the_overflow_bucket_reads_as_max(self):
        h = Histogram("h", buckets=(1.0,))
        for v in (0.5, 2.0, 9.0, 30.0):
            h.observe(v)
        assert h.quantile(0.5) == 30.0
        assert h.quantile(0.25) == 1.0  # rank 1 ends the first bucket

    def test_an_empty_histogram_reads_nan(self):
        h = Histogram("h")
        assert all(math.isnan(h.quantile(q)) for q in metrics.QUANTILES)

    @settings(deadline=None)
    @given(st.sampled_from([(1.0,), (0.1, 0.5, 1.0, 5.0), RPC_BUCKETS]),
           st.sampled_from(metrics.QUANTILES),
           st.lists(st.floats(-10.0, 10.0) | st.integers(-2, 6).map(float),
                    min_size=1, max_size=200))
    def test_every_stream_reads_in_the_bucket_of_its_exact_quantile(
            self, buckets, q, values):
        _assert_in_exact_bucket(buckets, q, values)


def _assert_in_exact_bucket(buckets, q, values):
    """The estimate lies where the exact q-quantile (the ceil(q*n)-th
    smallest value) does: in its bucket, within the observed range."""
    h = Histogram("h", buckets=buckets)
    for v in values:
        h.observe(v)
    ordered = sorted(values)
    exact = ordered[math.ceil(q * len(ordered)) - 1]
    i = bisect.bisect_left(buckets, exact)
    lo = max(buckets[i - 1] if i else -math.inf, ordered[0])
    hi = min(buckets[i] if i < len(buckets) else math.inf, ordered[-1])
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))  # interpolation rounding
    assert lo - slack <= h.quantile(q) <= hi + slack, (exact, lo, hi)


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

