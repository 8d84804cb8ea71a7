"""Tests for Chrome trace / JSONL export and the run summary.

Includes the golden determinism test: two runs under the same seed must
produce byte-identical Chrome trace JSON.
"""

import json

import pytest

from repro.core import (
    BoincMRConfig,
    CloudSpec,
    MapReduceJobSpec,
    VolunteerCloud,
)
from repro.obs import (
    MetricsRegistry,
    SpanBuilder,
    chrome_trace_json,
    run_summary,
    trace_to_jsonl,
)
from repro.sim import Tracer

from .test_spans import emit_task


def small_cloud_trace(seed=3):
    cloud = VolunteerCloud.from_spec(
        CloudSpec(seed=seed, mr_config=BoincMRConfig()))
    cloud.add_volunteers(6, mr=True)
    cloud.attach_observability(spans=True, probes=True, profile=True)
    cloud.run_job(MapReduceJobSpec("wc", n_maps=6, n_reducers=2,
                                   input_size=60e6))
    cloud.finish_observability()
    return cloud


class TestChromeTrace:
    def test_document_is_valid_and_complete(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        emit_task(tracer, rid=1)
        builder.finish(100.0)
        doc = json.loads(chrome_trace_json(builder))
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        # Metadata names both processes and the host thread.
        metas = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metas}
        assert {"volunteer hosts", "project server", "h0"} <= names
        # Complete events carry microsecond timestamps and durations.
        spans = [e for e in events if e["ph"] == "X"]
        parent = next(e for e in spans if e["cat"] == "result")
        assert parent["ts"] == 0.0 and parent["dur"] == pytest.approx(30e6)
        children = {e["name"] for e in spans if e["cat"] == "phase"}
        assert children == {"download", "compute", "upload", "report-wait"}

    def test_leaked_span_marked_in_args(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(0.0, "sched.assign", host="h0", result=1, wu=1)
        builder.finish(10.0)
        doc = json.loads(chrome_trace_json(builder))
        leaked = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["args"].get("leaked")]
        assert leaked

    def test_end_to_end_contains_complete_span_per_finished_task(self):
        cloud = small_cloud_trace()
        doc = json.loads(chrome_trace_json(cloud.span_builder))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        results = [e for e in spans if e["cat"] == "result"]
        reported = len(cloud.tracer.select("sched.report"))
        assert len(results) == reported > 0
        # Every result span has the full download->compute->upload chain.
        by_tid = {}
        for e in spans:
            if e["cat"] == "phase":
                by_tid.setdefault((e["tid"], e["name"]), 0)
                by_tid[(e["tid"], e["name"])] += 1
        assert any(name == "compute" for _tid, name in by_tid)

    def test_golden_determinism_byte_identical(self):
        a = chrome_trace_json(small_cloud_trace(seed=5).span_builder)
        b = chrome_trace_json(small_cloud_trace(seed=5).span_builder)
        assert a == b

    def test_different_seeds_differ(self):
        a = chrome_trace_json(small_cloud_trace(seed=5).span_builder)
        b = chrome_trace_json(small_cloud_trace(seed=6).span_builder)
        assert a != b


class TestJsonl:
    def test_one_object_per_record(self):
        tracer = Tracer()
        tracer.record(1.0, "sched.rpc", host="h0", work_req=1.0)
        tracer.record(2.0, "client.backoff", host="h0", count=1, delay=60.0)
        lines = trace_to_jsonl(tracer).strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"time": 1.0, "kind": "sched.rpc", "host": "h0",
                         "work_req": 1.0}

    def test_payload_kind_does_not_clobber_record_kind(self):
        tracer = Tracer()
        tracer.record(0.0, "sched.assign", host="h0", result=1, wu=1,
                      job="wc", kind="map", index=0)
        row = json.loads(trace_to_jsonl(tracer))
        assert row["kind"] == "sched.assign"
        assert row["field.kind"] == "map"

    def test_empty_trace_is_empty_string(self):
        assert trace_to_jsonl(Tracer()) == ""


class TestRunSummary:
    def test_reports_counts_metrics_leaks_and_profile(self):
        cloud = small_cloud_trace()
        text = run_summary(cloud.tracer, metrics=cloud.metrics,
                           builder=cloud.span_builder,
                           profiler=cloud.profiler)
        assert "trace records:" in text
        assert "sched.rpc_total" in text
        assert "leaked" in text
        assert "engine self-profile" in text
        assert "process:" in text  # at least one process kind in the top-5

    def test_leaked_spans_listed(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(0.0, "sched.assign", host="h0", result=1, wu=1)
        builder.finish(25.0)
        text = run_summary(tracer, MetricsRegistry(), builder=builder)
        assert "LEAKED" in text and "25.0s" in text
