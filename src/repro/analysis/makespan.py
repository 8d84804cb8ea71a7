"""Extraction of the paper's metrics from simulation traces.

Table I reports, per scenario:

- **Map time / Reduce time** — "the average of the time taken for each
  step (interval between receiving task from scheduler to reporting it as
  done)", per successful result;
- the *bracketed italic* variants — the same averages "discard[ing] the
  results of the slowest node of the experiment";
- **Total time** — "the interval between the scheduling of the first map
  task and the return of the last reduce output".

Everything here is computed from the shared trace (``sched.assign`` /
``sched.report`` records), i.e. from the server's point of view, exactly
as the paper instruments it.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as _t

from ..sim import Tracer


@dataclasses.dataclass(frozen=True, slots=True)
class TaskInterval:
    """One result's life as the scheduler saw it."""

    result_id: int
    host: str
    kind: str               # "map" | "reduce"
    index: int
    assigned_at: float
    reported_at: float

    @property
    def duration(self) -> float:
        """Assigned-to-reported span in seconds."""
        return self.reported_at - self.assigned_at


@dataclasses.dataclass(frozen=True, slots=True)
class PhaseStats:
    """Aggregates over one phase's task intervals."""

    mean: float
    mean_discard_slowest: float
    span: float              # first assignment -> last report
    n_tasks: int
    slowest_host: str


@dataclasses.dataclass(frozen=True, slots=True)
class JobMetrics:
    """The paper's Table I cell set for one run."""

    job: str
    map_stats: PhaseStats
    reduce_stats: PhaseStats
    total: float
    total_discard_slowest: float
    #: Dead time between last map report and first reduce assignment
    #: (the Section IV.B map->reduce transition delay).
    transition_gap: float


def task_intervals(tracer: Tracer, job: str) -> list[TaskInterval]:
    """Join assignment and report records per result for *job*."""
    assigns: dict[int, _t.Any] = {}
    for rec in tracer.select("sched.assign", job=job):
        assigns[rec["result"]] = rec
    out: list[TaskInterval] = []
    for rec in tracer.select("sched.report", job=job):
        if not rec.get("success", False):
            continue
        a = assigns.get(rec["result"])
        if a is None:
            continue
        out.append(TaskInterval(
            result_id=rec["result"], host=a["host"], kind=a["kind"],
            index=a["index"], assigned_at=a.time, reported_at=rec.time))
    return out


def _phase_stats(intervals: list[TaskInterval]) -> PhaseStats:
    if not intervals:
        raise ValueError("no intervals for phase")
    durations = [iv.duration for iv in intervals]
    # "The slowest node of the experiment": the host with the longest
    # single task interval — the straggler whose backoff-delayed report
    # inflates the average (Section IV.B).
    slowest_host = max(intervals, key=lambda iv: iv.duration).host
    kept = [iv.duration for iv in intervals if iv.host != slowest_host]
    discarded_mean = statistics.fmean(kept) if kept else statistics.fmean(durations)
    return PhaseStats(
        mean=statistics.fmean(durations),
        mean_discard_slowest=discarded_mean,
        span=max(iv.reported_at for iv in intervals)
             - min(iv.assigned_at for iv in intervals),
        n_tasks=len(intervals),
        slowest_host=slowest_host,
    )


def job_metrics(tracer: Tracer, job: str) -> JobMetrics:
    """Compute the Table I cells for *job* from the trace."""
    intervals = task_intervals(tracer, job)
    maps = [iv for iv in intervals if iv.kind == "map"]
    reduces = [iv for iv in intervals if iv.kind == "reduce"]
    if not maps or not reduces:
        raise ValueError(
            f"job {job!r} has incomplete trace (maps={len(maps)}, "
            f"reduces={len(reduces)})")
    map_stats = _phase_stats(maps)
    reduce_stats = _phase_stats(reduces)
    first_map_assign = min(iv.assigned_at for iv in maps)
    last_reduce_report = max(iv.reported_at for iv in reduces)
    total = last_reduce_report - first_map_assign

    # Total with the slowest node discarded: drop the phase-straggler's
    # results and recompute the end-to-end interval.
    slow = {map_stats.slowest_host, reduce_stats.slowest_host}
    kept_maps = [iv for iv in maps if iv.host not in slow] or maps
    kept_reduces = [iv for iv in reduces if iv.host not in slow] or reduces
    total_discard = (max(iv.reported_at for iv in kept_reduces)
                     - min(iv.assigned_at for iv in kept_maps))

    transition_gap = (min(iv.assigned_at for iv in reduces)
                      - max(iv.reported_at for iv in maps))
    return JobMetrics(
        job=job,
        map_stats=map_stats,
        reduce_stats=reduce_stats,
        total=total,
        total_discard_slowest=total_discard,
        transition_gap=transition_gap,
    )


def backoff_delays(tracer: Tracer) -> list[float]:
    """All exponential-backoff deferrals recorded."""
    return [r["delay"] for r in tracer.select("client.backoff")]


def report_lags(tracer: Tracer, job: str) -> list[tuple[str, float]]:
    """Per result: time between output being ready and its report.

    The paper's Fig. 4 quantity — "the task ... is only reported as
    completed in the next scheduler RPC".
    """
    ready_at: dict[int, tuple[str, float]] = {}
    for rec in tracer.select("task.ready"):
        ready_at[rec["result"]] = (rec["host"], rec.time)
    out = []
    for rec in tracer.select("sched.report", job=job, success=True):
        entry = ready_at.get(rec["result"])
        if entry is not None:
            out.append((entry[0], rec.time - entry[1]))
    return out
