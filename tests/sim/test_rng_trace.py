"""Unit tests for RNG streams and the tracer."""

import pytest

from repro.sim import RngRegistry, Tracer
from repro.sim.rng import jittered


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("x").random(10).tolist()
        b = RngRegistry(42).stream("x").random(10).tolist()
        assert a == b

    def test_different_names_independent(self):
        reg = RngRegistry(42)
        a = reg.stream("a").random(10).tolist()
        b = reg.stream("b").random(10).tolist()
        assert a != b

    def test_creation_order_irrelevant(self):
        r1 = RngRegistry(7)
        r1.stream("first")
        x1 = r1.stream("second").random(5).tolist()
        r2 = RngRegistry(7)
        x2 = r2.stream("second").random(5).tolist()
        assert x1 == x2

    def test_stream_is_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("s") is reg.stream("s")

    def test_stream_state_advances(self):
        reg = RngRegistry(0)
        a = reg.stream("s").random()
        b = reg.stream("s").random()
        assert a != b

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random(5).tolist()
        b = RngRegistry(2).stream("x").random(5).tolist()
        assert a != b

    def test_fork_deterministic(self):
        a = RngRegistry(3).fork(5).stream("x").random(5).tolist()
        b = RngRegistry(3).fork(5).stream("x").random(5).tolist()
        assert a == b

    def test_fork_differs_from_parent(self):
        base = RngRegistry(3)
        assert base.fork(1).stream("x").random(5).tolist() != base.stream("x").random(5).tolist()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("42")


class TestJittered:
    def test_zero_jitter_exact(self):
        rng = RngRegistry(0).stream("j")
        assert jittered(rng, 10.0, 0.0) == 10.0

    def test_jitter_within_bounds(self):
        rng = RngRegistry(0).stream("j")
        for _ in range(200):
            v = jittered(rng, 10.0, 0.2)
            assert 8.0 <= v <= 12.0

    def test_invalid_jitter_rejected(self):
        rng = RngRegistry(0).stream("j")
        with pytest.raises(ValueError):
            jittered(rng, 1.0, -0.1)
        with pytest.raises(ValueError):
            jittered(rng, 1.0, 1.0)


class TestTracer:
    def test_record_and_select(self):
        tr = Tracer()
        tr.record(1.0, "rpc", host="h1")
        tr.record(2.0, "rpc", host="h2")
        tr.record(3.0, "upload", host="h1")
        assert len(tr.select("rpc")) == 2
        assert tr.select("rpc", host="h1")[0].time == 1.0

    def test_select_missing_field_no_match(self):
        tr = Tracer()
        tr.record(1.0, "rpc")
        assert tr.select("rpc", host="h1") == []

    def test_select_field_none_matches_explicit_none(self):
        tr = Tracer()
        tr.record(1.0, "rpc", host=None)
        assert len(tr.select("rpc", host=None)) == 1

    def test_first_and_last(self):
        tr = Tracer()
        tr.record(1.0, "x", k=1)
        tr.record(5.0, "x", k=2)
        assert tr.first("x").get("k") == 1
        assert tr.last("x").get("k") == 2
        assert tr.first("nothing") is None

    def test_times(self):
        tr = Tracer()
        for t in (1.0, 4.0, 9.0):
            tr.record(t, "tick")
        assert tr.times("tick") == [1.0, 4.0, 9.0]

    def test_counts_maintained_even_when_filtered(self):
        tr = Tracer(keep=lambda kind: kind != "noisy")
        tr.record(1.0, "noisy")
        tr.record(2.0, "keep")
        assert len(tr.records) == 1
        assert tr.counts["noisy"] == 1

    def test_tap_sees_filtered_records(self):
        seen = []
        tr = Tracer(keep=lambda kind: False)
        tr.tap(lambda rec: seen.append(rec.kind))
        tr.record(1.0, "a")
        assert seen == ["a"]
        assert len(tr.records) == 0

    def test_record_getitem(self):
        tr = Tracer()
        tr.record(1.0, "x", foo="bar")
        assert tr.records[0]["foo"] == "bar"
        assert tr.records[0].get("nope", 0) == 0
