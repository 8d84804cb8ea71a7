"""Run harness: one deployment, one job, the paper's metrics.

A run is described by the pair every layer already speaks: a frozen
:class:`~repro.core.CloudSpec` (the paper's Section IV.A setup is an
Emulab-like cluster of ``n_nodes`` volunteer machines on 100 Mbit links
around one project server, original BOINC clients with data via the
server or BOINC-MR clients with inter-client transfers) and a
:class:`~repro.core.MapReduceJobSpec` (a word-count job with a fixed 1 GB
input split into ``n_maps`` chunks, replication 2 / quorum 2).

``run_scenario()`` executes the pair to completion and returns the
paper's metrics plus handles for deeper inspection.
"""

from __future__ import annotations

import dataclasses

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
