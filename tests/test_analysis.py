"""Unit tests for trace analysis and table/figure rendering."""

import pytest

from repro.analysis import (
    backoff_delays,
    format_cell,
    job_metrics,
    render_table,
    render_timeline,
    report_lags,
    task_intervals,
)
from repro.sim import Tracer


def synth_trace():
    """Hand-built trace: 2 hosts, 2 maps (replication 1), 1 reduce."""
    tr = Tracer()
    # host A: map result 1 assigned t=0, reported t=100
    tr.record(0.0, "sched.assign", host="A", result=1, wu=1, job="j",
              kind="map", index=0)
    tr.record(100.0, "sched.report", host="A", result=1, wu=1, success=True,
              job="j", kind="map", index=0)
    # host B: map result 2 assigned t=0, reported t=400 (straggler)
    tr.record(0.0, "sched.assign", host="B", result=2, wu=2, job="j",
              kind="map", index=1)
    tr.record(400.0, "sched.report", host="B", result=2, wu=2, success=True,
              job="j", kind="map", index=1)
    # reduce on host A: assigned 450, reported 600
    tr.record(450.0, "sched.assign", host="A", result=3, wu=3, job="j",
              kind="reduce", index=0)
    tr.record(600.0, "sched.report", host="A", result=3, wu=3, success=True,
              job="j", kind="reduce", index=0)
    # ready events for report-lag analysis
    tr.record(90.0, "task.ready", host="A", result=1, wu=1)
    tr.record(150.0, "task.ready", host="B", result=2, wu=2)
    tr.record(590.0, "task.ready", host="A", result=3, wu=3)
    return tr


class TestTaskIntervals:
    def test_join(self):
        ivs = task_intervals(synth_trace(), "j")
        assert len(ivs) == 3
        by_result = {iv.result_id: iv for iv in ivs}
        assert by_result[1].duration == 100.0
        assert by_result[2].duration == 400.0
        assert by_result[2].host == "B"

    def test_failed_reports_excluded(self):
        tr = synth_trace()
        tr.record(10.0, "sched.assign", host="A", result=9, wu=9, job="j",
                  kind="map", index=5)
        tr.record(20.0, "sched.report", host="A", result=9, wu=9,
                  success=False, job="j", kind="map", index=5)
        assert len(task_intervals(tr, "j")) == 3

    def test_other_jobs_excluded(self):
        tr = synth_trace()
        tr.record(0.0, "sched.assign", host="A", result=8, wu=8, job="other",
                  kind="map", index=0)
        tr.record(5.0, "sched.report", host="A", result=8, wu=8, success=True,
                  job="other", kind="map", index=0)
        assert len(task_intervals(tr, "j")) == 3


class TestJobMetrics:
    def test_means_and_discard(self):
        m = job_metrics(synth_trace(), "j")
        assert m.map_stats.mean == pytest.approx(250.0)
        # B is the slowest node in the map phase; discard its results.
        assert m.map_stats.slowest_host == "B"
        assert m.map_stats.mean_discard_slowest == pytest.approx(100.0)
        assert m.reduce_stats.mean == pytest.approx(150.0)

    def test_total(self):
        m = job_metrics(synth_trace(), "j")
        assert m.total == pytest.approx(600.0)

    def test_transition_gap(self):
        m = job_metrics(synth_trace(), "j")
        assert m.transition_gap == pytest.approx(50.0)  # 450 - 400

    def test_incomplete_trace_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="incomplete"):
            job_metrics(tr, "j")

    def test_span(self):
        m = job_metrics(synth_trace(), "j")
        assert m.map_stats.span == pytest.approx(400.0)


class TestReportLags:
    def test_lags(self):
        lags = dict_of(report_lags(synth_trace(), "j"))
        assert lags["B"] == pytest.approx(250.0)  # ready 150, reported 400

    def test_backoff_delays_empty(self):
        assert backoff_delays(synth_trace()) == []

    def test_backoff_delays_filtered(self):
        tr = synth_trace()
        tr.record(1.0, "client.backoff", host="A", count=1, delay=60.0)
        tr.record(2.0, "client.backoff", host="B", count=1, delay=120.0)
        assert backoff_delays(tr) == [60.0, 120.0]


def dict_of(pairs):
    out = {}
    for host, lag in pairs:
        out[host] = max(lag, out.get(host, 0.0))
    return out


class TestRenderers:
    def test_format_cell_collapses_when_close(self):
        assert format_cell(100.0, 95.0) == "100"
        assert format_cell(700.0, 400.0) == "700 [400]"

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_timeline(self):
        text = render_timeline([("x", 0.0, 10.0), ("y", 5.0, 20.0)], width=20)
        assert "#" in text
        assert text.count("|") >= 4

    def test_render_timeline_empty(self):
        assert render_timeline([]) == "(no events)"
