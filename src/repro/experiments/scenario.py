"""Run harness: one deployment, one job, the paper's metrics.

A run is described by the pair every layer already speaks: a frozen
:class:`~repro.core.CloudSpec` (the paper's Section IV.A setup is an
Emulab-like cluster of ``n_nodes`` volunteer machines on 100 Mbit links
around one project server, original BOINC clients with data via the
server or BOINC-MR clients with inter-client transfers) and a
:class:`~repro.core.MapReduceJobSpec` (a word-count job with a fixed 1 GB
input split into ``n_maps`` chunks, replication 2 / quorum 2).

``run_scenario()`` executes the pair to completion and returns the
paper's metrics plus handles for deeper inspection;
``run_deployment()`` does the same and returns the flat JSON payload
campaign cells and study variants are made of.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import JobMetrics, job_metrics
from ..core import CloudSpec, MapReduceJob, MapReduceJobSpec, VolunteerCloud
from ..sim import Tracer


@dataclasses.dataclass(slots=True)
class ScenarioResult:
    """Everything a benchmark needs from one run."""

    job: MapReduceJob
    metrics: JobMetrics
    tracer: Tracer
    cloud: VolunteerCloud

    @property
    def total(self) -> float:
        """Total job makespan in seconds."""
        return self.metrics.total


def run_scenario(cloud: CloudSpec | VolunteerCloud, job: MapReduceJobSpec,
                 timeout_s: float = 48 * 3600.0) -> ScenarioResult:
    """Run *job* to completion on *cloud* and extract the paper's metrics.

    *cloud* is a spec, or the deployment already built from one when the
    caller had something to attach first (churn, faults, a traversal
    ladder).
    """
    if isinstance(cloud, CloudSpec):
        cloud = VolunteerCloud.from_spec(cloud)
    if len(cloud.clients) < job.replication:
        raise ValueError(
            "need at least `replication` nodes or no workunit can ever "
            "reach quorum (one replica per host)")
    finished = cloud.run_job(job, timeout=timeout_s)
    return ScenarioResult(job=finished,
                          metrics=job_metrics(cloud.tracer, job.name),
                          tracer=cloud.tracer, cloud=cloud)


def metrics_payload(metrics: JobMetrics) -> dict[str, _t.Any]:
    """The paper's Table I cell set, as a flat JSON-able dict."""
    return {
        "total": metrics.total,
        "total_discard_slowest": metrics.total_discard_slowest,
        "map_mean": metrics.map_stats.mean,
        "map_discard_slowest": metrics.map_stats.mean_discard_slowest,
        "reduce_mean": metrics.reduce_stats.mean,
        "reduce_discard_slowest": metrics.reduce_stats.mean_discard_slowest,
        "transition_gap": metrics.transition_gap,
    }


def fetch_counts(cloud: VolunteerCloud) -> dict[str, int]:
    """How the cloud's reducers got their inputs: from peers, or from the
    server copy after a peer fetch failed."""
    return {
        "peer_fetches": sum(c.input_fetcher.peer_fetches
                            for c in cloud.clients),
        "server_fallbacks": sum(c.input_fetcher.server_fallbacks
                                for c in cloud.clients),
    }


def run_deployment(cloud_spec: CloudSpec, job_spec: MapReduceJobSpec,
                   faults: str | None = None,
                   **timeout: float) -> dict[str, _t.Any]:
    """Build, optionally fault-inject, and run one deployment; returns
    :func:`metrics_payload` plus the simulator's event count and end time
    (and the audit verdict when a chaos plan was armed)."""
    cloud = VolunteerCloud.from_spec(cloud_spec)
    injector = cloud.apply_faults(faults) if faults else None
    result = run_scenario(cloud, job_spec, **timeout)
    payload = metrics_payload(result.metrics)
    payload["events"] = cloud.sim.dispatch_count
    payload["sim_end"] = cloud.sim.now
    if injector is not None:
        report = cloud.audit(result.job)
        payload["faults_injected"] = len(injector.events)
        payload["audit_ok"] = report.ok
    return payload
