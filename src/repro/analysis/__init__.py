"""Trace analysis: the paper's metrics and text renderers for tables/figures."""

from .makespan import (
    JobMetrics,
    PhaseStats,
    TaskInterval,
    backoff_delays,
    job_metrics,
    report_lags,
    task_intervals,
)
from .campaign import (
    GroupStats,
    aggregate_records,
    aggregate_store,
    render_campaign_table,
)
from .export import (
    chrome_trace_json,
    intervals_to_csv,
    metrics_to_dict,
    metrics_to_json,
    run_summary,
    trace_to_csv,
    trace_to_jsonl,
    utilisation_timeline,
    write_chrome_trace,
)
from .studies import render_study, study_payloads
from .stats import Summary, improvement, percentile, straggler_index, summarise
from .tables import format_cell, render_series, render_table, render_timeline

__all__ = [
    "JobMetrics",
    "PhaseStats",
    "TaskInterval",
    "job_metrics",
    "task_intervals",
    "backoff_delays",
    "report_lags",
    "format_cell",
    "render_table",
    "render_timeline",
    "render_series",
    "trace_to_csv",
    "trace_to_jsonl",
    "chrome_trace_json",
    "write_chrome_trace",
    "run_summary",
    "intervals_to_csv",
    "metrics_to_dict",
    "metrics_to_json",
    "utilisation_timeline",
    "Summary",
    "summarise",
    "percentile",
    "straggler_index",
    "improvement",
    "GroupStats",
    "aggregate_records",
    "aggregate_store",
    "render_campaign_table",
    "study_payloads",
    "render_study",
]
