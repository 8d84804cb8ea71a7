"""Tests for SpanBuilder: stitching, hierarchy, RPC spans, leak detection."""

from repro.obs.spans import SpanBuilder
from repro.sim import Tracer


def emit_task(tracer, rid, host="h0", assign=0.0, dl=1.0, compute=5.0,
              runtime=10.0, ready=20.0, report=30.0):
    """Emit the full per-result record sequence for one task."""
    tracer.record(assign, "sched.assign", host=host, result=rid, wu=rid,
                  job="wc", kind="map", index=rid)
    tracer.record(dl, "task.download_start", host=host, result=rid)
    tracer.record(compute, "task.compute_start", host=host, result=rid,
                  runtime=runtime)
    tracer.record(ready, "task.ready", host=host, result=rid, wu=rid)
    tracer.record(report, "sched.report", host=host, result=rid, wu=rid,
                  success=True, job="wc", kind="map", index=rid)


class TestResultSpans:
    def test_complete_task_produces_span_with_phases(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        emit_task(tracer, rid=1)
        builder.finish(100.0)
        results = [s for s in builder.spans if s.category == "result"]
        assert len(results) == 1
        span = results[0]
        assert span.track == "host:h0"
        assert (span.start, span.end) == (0.0, 30.0)
        assert not span.leaked
        phases = {c.name: (c.start, c.end) for c in span.children}
        assert phases["download"] == (1.0, 5.0)
        assert phases["compute"] == (5.0, 15.0)
        assert phases["upload"] == (15.0, 20.0)
        assert phases["report-wait"] == (20.0, 30.0)

    def test_leaked_span_closed_and_flagged(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(0.0, "sched.assign", host="h1", result=7, wu=7,
                      job="wc", kind="map", index=0)
        tracer.record(2.0, "task.download_start", host="h1", result=7)
        assert builder.open_count == 1
        leaked = builder.finish(50.0)
        assert len(leaked) == 1
        assert leaked[0].leaked
        assert (leaked[0].start, leaked[0].end) == (0.0, 50.0)
        assert builder.open_count == 0

    def test_leaks_close_in_opening_order_and_never_backwards(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        for rid, t in ((9, 1.0), (3, 2.0), (5, 8.0)):
            tracer.record(t, "sched.assign", host="h1", result=rid, wu=rid)
        tracer.record(4.0, "sched.report", host="h1", result=3, wu=3)
        assert builder.open_result_ids() == [5, 9]
        leaked = builder.finish(6.0)
        assert [(s.args["result"], s.start, s.end) for s in leaked] == [
            (9, 1.0, 6.0), (5, 8.0, 8.0)]

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(0.0, "sched.assign", host="h1", result=7, wu=7)
        assert builder.finish(10.0) is builder.finish(99.0)
        assert len(builder.leaked) == 1

    def test_report_without_assign_ignored(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(1.0, "sched.report", host="h0", result=3, wu=3,
                      success=True)
        builder.finish(10.0)
        assert [s for s in builder.spans if s.category == "result"] == []


class TestRpcSpans:
    def test_rpc_round_trip_becomes_span(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(4.0, "client.rpc_start", host="h0", work_req=120.0,
                      n_reports=0)
        tracer.record(5.5, "client.rpc_done", host="h0", n_assignments=2,
                      no_work=False)
        rpcs = [s for s in builder.spans if s.category == "rpc"]
        assert len(rpcs) == 1
        assert (rpcs[0].start, rpcs[0].end) == (4.0, 5.5)
        assert rpcs[0].args["n_assignments"] == 2

    def test_unanswered_rpc_leaks(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(4.0, "client.rpc_start", host="h0", work_req=0.0)
        builder.finish(9.0)
        assert len(builder.leaked) == 1
        assert builder.leaked[0].category == "rpc"


class TestInstants:
    def test_backoff_lands_on_host_track(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(3.0, "client.backoff", host="h2", count=2, delay=120.0)
        inst = [i for i in builder.instants if i.category == "backoff"]
        assert len(inst) == 1
        assert inst[0].track == "host:h2"

    def test_daemon_events_route_to_daemon_tracks(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(1.0, "validator.validated", wu=1, canonical=2)
        tracer.record(2.0, "transitioner.timeout", result=5, wu=1)
        tracer.record(3.0, "assimilator.done", wu=1)
        tracks = {i.track for i in builder.instants}
        assert {"daemon:validator", "daemon:transitioner",
                "daemon:assimilator"} <= tracks

    def test_unknown_kind_ignored(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(1.0, "peer.fetched", host="h0")
        assert builder.instants == []

    def test_tracks_hosts_before_daemons(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(1.0, "validator.validated", wu=1)
        emit_task(tracer, rid=1, host="zz")
        builder.finish(99.0)
        tracks = builder.tracks()
        assert tracks[0].startswith("host:")
        assert tracks[-1].startswith("daemon:")


class TestFailureMarkers:
    def test_failed_task_emits_error_instant_then_closes_on_report(self):
        tracer = Tracer()
        builder = SpanBuilder(tracer)
        tracer.record(0.0, "sched.assign", host="h0", result=1, wu=1)
        tracer.record(1.0, "task.failed", host="h0", result=1, error="boom")
        tracer.record(2.0, "sched.report", host="h0", result=1, wu=1,
                      success=False)
        errors = [i for i in builder.instants if i.category == "error"]
        assert len(errors) == 1
        span = [s for s in builder.spans if s.category == "result"][0]
        assert span.args["success"] is False
