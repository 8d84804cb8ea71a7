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
from .export import utilisation_timeline
from .studies import render_study, study_payloads
from .stats import Summary, percentile, summarise
from .tables import format_cell, render_table, render_timeline

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
    "utilisation_timeline",
    "Summary",
    "summarise",
    "percentile",
    "GroupStats",
    "aggregate_records",
    "aggregate_store",
    "render_campaign_table",
    "study_payloads",
    "render_study",
]
