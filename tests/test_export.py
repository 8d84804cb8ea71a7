"""Tests for the utilisation timeline."""

import pytest

from repro.analysis import utilisation_timeline
from repro.sim import Tracer


class TestUtilisationTimeline:
    def test_bucketing(self):
        tr = Tracer()
        for t in (0.0, 10.0, 35.0, 65.0):
            tr.record(t, "sched.rpc", host="h")
        buckets = utilisation_timeline(tr, bucket_s=30.0)
        assert buckets == [(0.0, 2), (30.0, 1), (60.0, 1)]

    def test_empty_buckets_included(self):
        tr = Tracer()
        tr.record(0.0, "sched.rpc")
        tr.record(95.0, "sched.rpc")
        buckets = utilisation_timeline(tr, bucket_s=30.0)
        assert buckets[1] == (30.0, 0)
        assert buckets[2] == (60.0, 0)

    def test_empty_trace(self):
        assert utilisation_timeline(Tracer()) == []

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            utilisation_timeline(Tracer(), bucket_s=0)
