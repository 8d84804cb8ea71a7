"""Reproduction of Fig. 4: the map-phase backoff straggler.

The paper's Figure 4 shows per-node map timelines for the 15-node /
15-map-WU scenario (30 results): every node uploads its map outputs
promptly, but one node's *report* is held hostage by the exponential
backoff window, delaying the start of the reduce phase for everyone.

``run_fig4()`` executes that scenario (scanning seeds until a genuine
straggler appears, since the paper itself presents a cherry-picked "perfect
example"), and returns per-result timelines plus the straggler analysis.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import render_timeline, task_intervals
from ..core import CloudSpec, MapReduceJobSpec
from .scenario import ScenarioResult, run_scenario


@dataclasses.dataclass(frozen=True, slots=True)
class MapTimeline:
    """One map result's timeline entries (for the Gantt rendering)."""

    host: str
    result_id: int
    assigned_at: float
    ready_at: float | None
    reported_at: float

    @property
    def report_lag(self) -> float | None:
        """Output-ready to reported, the paper's delay metric."""
        if self.ready_at is None:
            return None
        return self.reported_at - self.ready_at


@dataclasses.dataclass(slots=True)
class Fig4Result:
    """Fig. 4 reproduction: per-result map timelines + the straggler."""

    result: ScenarioResult
    timelines: list[MapTimeline]
    straggler_host: str
    straggler_lag: float
    reduce_start: float

    def render(self, width: int = 64) -> str:
        """ASCII Gantt of every map result's assigned-to-reported span."""
        events = [
            (f"{t.host}/r{t.result_id}", t.assigned_at, t.reported_at)
            for t in sorted(self.timelines,
                            key=lambda t: (t.host, t.assigned_at))
        ]
        chart = render_timeline(
            events, width=width,
            title=("Fig. 4 — map phase, 15 map WUs (30 results): "
                   f"straggler {self.straggler_host} held its report "
                   f"{self.straggler_lag:.0f}s in backoff"))
        return chart


def fig4_scenario(seed: int) -> tuple[CloudSpec, MapReduceJobSpec]:
    """The paper's Fig. 4 deployment: 15 nodes, 15 map WUs."""
    return (CloudSpec(seed=seed, n_nodes=15),
            MapReduceJobSpec("fig4", n_maps=15, n_reducers=3))


def extract_timelines(result: ScenarioResult) -> list[MapTimeline]:
    """Pull per-map-result timelines out of a run's trace."""
    ready_at = {rec["result"]: rec.time
                for rec in result.tracer.select("task.ready")}
    out = []
    for iv in task_intervals(result.tracer, result.job.spec.name):
        if iv.kind != "map":
            continue
        out.append(MapTimeline(
            host=iv.host, result_id=iv.result_id,
            assigned_at=iv.assigned_at,
            ready_at=ready_at.get(iv.result_id),
            reported_at=iv.reported_at))
    return out


def run_fig4(base_seed: int = 1, min_straggler_lag: float = 120.0,
             max_seed_scans: int = 20) -> Fig4Result:
    """Run the Fig. 4 scenario, scanning seeds for a visible straggler.

    The pathology is stochastic ("it was not unusual for a node ... to
    back off at the exact moment before he had the result ready"); like
    the paper we present a run where it occurred.  Raises RuntimeError if
    no seed in the scan range produces one — which would itself indicate
    the backoff model is broken.
    """
    best: Fig4Result | None = None
    for seed in range(base_seed, base_seed + max_seed_scans):
        result = run_scenario(*fig4_scenario(seed))
        timelines = extract_timelines(result)
        lags = [(t.host, t.report_lag) for t in timelines
                if t.report_lag is not None]
        if not lags:
            continue
        host, lag = max(lags, key=lambda hl: hl[1])
        reduces = [iv for iv in task_intervals(result.tracer, "fig4")
                   if iv.kind == "reduce"]
        reduce_start = min(iv.assigned_at for iv in reduces)
        candidate = Fig4Result(result=result, timelines=timelines,
                               straggler_host=host, straggler_lag=lag,
                               reduce_start=reduce_start)
        if lag >= min_straggler_lag:
            return candidate
        if best is None or lag > best.straggler_lag:
            best = candidate
    if best is None:
        raise RuntimeError("fig4 scenario produced no report lags at all")
    raise RuntimeError(
        f"no seed in [{base_seed}, {base_seed + max_seed_scans}) produced a "
        f"straggler lag >= {min_straggler_lag}s (best: "
        f"{best.straggler_lag:.0f}s on {best.straggler_host}) — "
        "the backoff pathology did not reproduce")
