"""Unit tests for RNG streams and the tracer."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RngRegistry, Tracer, backoff_delay
from repro.sim.rng import jittered


def draws(rng, n):
    """*n* scalar ``random()`` draws from *rng*."""
    return [rng.random() for _ in range(n)]


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = draws(RngRegistry(42).stream("x"), 10)
        b = draws(RngRegistry(42).stream("x"), 10)
        assert a == b

    def test_different_names_independent(self):
        reg = RngRegistry(42)
        a = draws(reg.stream("a"), 10)
        b = draws(reg.stream("b"), 10)
        assert a != b

    def test_creation_order_irrelevant(self):
        r1 = RngRegistry(7)
        r1.stream("first")
        x1 = draws(r1.stream("second"), 5)
        r2 = RngRegistry(7)
        x2 = draws(r2.stream("second"), 5)
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
        a = draws(RngRegistry(1).stream("x"), 5)
        b = draws(RngRegistry(2).stream("x"), 5)
        assert a != b

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


class TestJitterIsUniform:
    """``jittered`` draws ``rng.random()`` once and applies uniform's own
    formula, so it is bit-identical to ``base * (1 + rng.uniform(-j, j))``
    for both rngs the program passes it, and leaves the stream where
    ``uniform`` would."""

    @staticmethod
    def _pairs(seed):
        return [(np.random.default_rng(seed), np.random.default_rng(seed)),
                (random.Random(seed), random.Random(seed))]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           base=st.floats(-1e12, 1e12, allow_nan=False),
           rel_jitter=st.floats(0.0, 1.0, exclude_max=True))
    def test_jittered_is_uniform_bit_for_bit(self, seed, base, rel_jitter):
        for mine, ref in self._pairs(seed):
            got = jittered(mine, base, rel_jitter)
            want = (base if rel_jitter == 0 else
                    base * (1.0 + ref.uniform(-rel_jitter, rel_jitter)))
            assert got == want
            assert mine.random() == ref.random()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lo=st.floats(1e-3, 1e3), hi=st.floats(1e-3, 1e4),
           n=st.integers(1, 12),
           jitter=st.floats(0.0, 1.0, exclude_max=True))
    def test_backoff_delay_is_uniform_bit_for_bit(self, seed, lo, hi, n,
                                                   jitter):
        for mine, ref in self._pairs(seed):
            base = min(hi, lo * (2.0 ** (n - 1)))
            want = (base if jitter == 0 else
                    base * (1.0 + ref.uniform(-jitter, jitter)))
            assert backoff_delay(mine, lo, hi, n, jitter) == want
            assert mine.random() == ref.random()


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
