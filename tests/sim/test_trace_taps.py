"""Tests for Tracer.tap semantics, the per-kind index, and interval drains."""

import pytest

from repro.sim import Tracer


class TestTapOrdering:
    def test_taps_called_in_registration_order(self):
        tracer = Tracer()
        calls = []
        tracer.tap(lambda rec: calls.append(("first", rec.kind)))
        tracer.tap(lambda rec: calls.append(("second", rec.kind)))
        tracer.record(1.0, "a")
        assert calls == [("first", "a"), ("second", "a")]

    def test_tap_sees_record_already_stored(self):
        tracer = Tracer()
        seen = []
        tracer.tap(lambda rec: seen.append(len(tracer.records)))
        tracer.record(1.0, "a")
        assert seen == [1]  # stored before the tap runs

    def test_tap_called_for_dropped_records(self):
        tracer = Tracer(keep=lambda kind: False)
        seen = []
        tracer.tap(lambda rec: seen.append(rec.kind))
        tracer.record(1.0, "a")
        assert seen == ["a"] and tracer.records == []

    def test_tap_exception_propagates_and_skips_later_taps(self):
        tracer = Tracer()
        later = []
        tracer.tap(lambda rec: (_ for _ in ()).throw(RuntimeError("tap boom")))
        tracer.tap(lambda rec: later.append(rec))
        with pytest.raises(RuntimeError, match="tap boom"):
            tracer.record(1.0, "a")
        assert later == []
        # The record itself was kept and counted before the tap ran.
        assert len(tracer.records) == 1 and tracer.counts["a"] == 1

    def test_untap_removes_observer(self):
        tracer = Tracer()
        seen = []
        fn = seen.append
        tracer.tap(fn)
        tracer.record(1.0, "a")
        tracer.untap(fn)
        tracer.untap(fn)  # no-op on a missing tap
        tracer.record(2.0, "a")
        assert len(seen) == 1


class TestPerKindIndex:
    def test_select_by_kind_matches_full_scan(self):
        tracer = Tracer()
        for i in range(50):
            tracer.record(float(i), "even" if i % 2 == 0 else "odd", i=i)
        fast = tracer.select("even")
        slow = [r for r in tracer.records if r.kind == "even"]
        assert fast == slow

    def test_field_filters_still_apply(self):
        tracer = Tracer()
        tracer.record(1.0, "a", host="x")
        tracer.record(2.0, "a", host="y")
        assert [r.time for r in tracer.select("a", host="y")] == [2.0]

    def test_unknown_kind_is_empty(self):
        assert Tracer().select("nope") == []

    def test_index_respects_keep_predicate(self):
        tracer = Tracer(keep=lambda kind: kind == "keepme")
        tracer.record(1.0, "keepme")
        tracer.record(2.0, "dropme")
        assert len(tracer.select("keepme")) == 1
        assert tracer.select("dropme") == []
        assert tracer.counts["dropme"] == 1

    def test_first_last_times_use_index(self):
        tracer = Tracer()
        tracer.record(1.0, "k", n=1)
        tracer.record(2.0, "k", n=2)
        assert tracer.first("k").time == 1.0
        assert tracer.last("k")["n"] == 2
        assert tracer.times("k") == [1.0, 2.0]
