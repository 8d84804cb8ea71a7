"""Reproduction of Fig. 4: the map-phase backoff straggler.

The paper's Figure 4 shows per-node map timelines for the 15-node /
15-map-WU scenario (30 results): every node uploads its map outputs
promptly, but one node's *report* is held hostage by the exponential
backoff window, delaying the start of the reduce phase for everyone.

The pathology is stochastic ("it was not unusual for a node ... to back
off at the exact moment before he had the result ready"); like the paper,
which presents a cherry-picked "perfect example", :data:`STUDY` documents
a seed where it occurred.  ``fig4_payload()`` runs that scenario and
returns the straggler analysis plus the Gantt rows.
"""

from __future__ import annotations

import typing as _t

from ..analysis import render_timeline, task_intervals
from ..boinc.client import ClientConfig
from ..core import CloudSpec, MapReduceJobSpec
from .scenario import metrics_payload, run_scenario
from .study import Claim, Payloads, Study, col


def fig4_payload(seed: int) -> dict[str, _t.Any]:
    """Run the paper's Fig. 4 deployment (15 nodes, 15 map WUs): who held
    their report longest, by how much against the field, and when the
    reduce phase could start."""
    result = run_scenario(CloudSpec(seed=seed, n_nodes=15),
                          MapReduceJobSpec("fig4", n_maps=15, n_reducers=3))
    tracer = result.tracer
    intervals = task_intervals(tracer, "fig4")
    maps = [iv for iv in intervals if iv.kind == "map"]
    ready = {r["result"]: r.time for r in tracer.select("task.ready")}
    lags = [(iv.host, iv.reported_at - ready[iv.result_id])
            for iv in maps if iv.result_id in ready]
    straggler, lag = max(lags, key=lambda hl: hl[1])
    uploads = {r["result"]: r.time
               for r in tracer.select("server.upload_received")}
    reported = {iv.result_id: iv.reported_at for iv in maps}
    checked = [rid for rid in uploads if rid in reported]
    return {
        **metrics_payload(result.metrics),
        "straggler_host": straggler,
        "straggler_lag": lag,
        "runner_up_lag": max(l for host, l in lags if host != straggler),
        "last_map_report": max(iv.reported_at for iv in maps),
        "reduce_start": min(iv.assigned_at for iv in intervals
                            if iv.kind == "reduce"),
        "uploads_checked": len(checked),
        "uploads_after_report": sum(
            uploads[rid] > reported[rid] + 1e-9 for rid in checked),
        # One Gantt row per map result: label, assigned, reported.
        "timeline": [[f"{iv.host}/r{iv.result_id}", iv.assigned_at,
                      iv.reported_at]
                     for iv in sorted(maps, key=lambda iv: (iv.host,
                                                            iv.assigned_at))],
    }


def _gantt(payloads: Payloads) -> str:
    """ASCII Gantt of every map result's assigned-to-reported span."""
    run = payloads["run"]
    return render_timeline(
        [tuple(row) for row in run["timeline"]], width=64,
        title=("Fig. 4 — map phase, 15 map WUs (30 results): "
               f"straggler {run['straggler_host']} held its report "
               f"{run['straggler_lag']:.0f}s in backoff"))


STUDY = Study(
    name="fig4", seed=1,
    variants={"run": fig4_payload},
    columns=(
        col("straggler", "{straggler_host}"),
        col("its output-ready → report lag", "{straggler_lag:.0f} s"),
        col("largest lag of any other node", "{runner_up_lag:.0f} s"),
        col("last map report", "t={last_map_report:.0f} s"),
        col("first reduce assignment", "t={reduce_start:.0f} s"),
    ),
    claims=(
        Claim("One node's report is delayed far beyond everyone else's: "
              "the straggler's lag is more than twice the next-largest.",
              lambda p: p["run"]["straggler_lag"]
              > 2 * p["run"]["runner_up_lag"]),
        Claim("The delay is on the scale of the 600 s backoff interval "
              "(paper: \"sometimes larger than the backoff interval\"): "
              "above 120 s, below twice the cap plus a minute.",
              lambda p: 120.0 < p["run"]["straggler_lag"]
              < 2 * ClientConfig().backoff_max_s + 60.0),
        Claim("Outputs are uploaded before they are reported: no uploaded "
              "map result reached the server after its report.",
              lambda p: p["run"]["uploads_checked"] >= 10
              and p["run"]["uploads_after_report"] == 0),
        Claim("The reduce phase cannot start until that report lands: the "
              "first reduce assignment follows the last map report.",
              lambda p: p["run"]["reduce_start"]
              >= p["run"]["last_map_report"]),
    ),
    figure=_gantt,
)
