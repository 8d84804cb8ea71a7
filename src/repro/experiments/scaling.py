"""Scaling study: makespan vs cluster size and vs task granularity.

Table I varies both node count and work-unit count without isolating
either axis; this study sweeps them independently:

- :func:`node_scaling`: fixed 1 GB job, growing cluster — where does
  adding volunteers stop helping?  (Answer: when per-node work drops to a
  couple of tasks, scheduling/backoff overheads and the replication floor
  dominate; the serial fraction here is the reduce tail plus the
  map->reduce transition.)
- :func:`granularity_scaling`: fixed cluster, varying ``n_maps`` — the
  paper's 1x vs 2x maps-per-node comparison extended to a full curve.
  Finer tasks pipeline better (downloads overlap compute) until per-task
  overheads win.
- :data:`NODE_SCALING`: the node-scaling curve as the study
  EXPERIMENTS.md documents, one variant per cluster size.
- :func:`scale_out`: the simulator-scalability study behind
  ``benchmarks/test_scale.py`` — an internet-style deployment (1 Gbit
  project server, ADSL volunteers, one concurrent word-count job per 200
  volunteers) at 100/500/2,000 nodes, measuring simulator throughput
  (events/sec) rather than makespan.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import typing as _t

from ..boinc.client import ClientConfig
from ..core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from ..net import ADSL_LINK, SERVER_LINK
from .scenario import ScenarioResult, metrics_payload, run_scenario
from .study import Claim, Study, col

#: Node counts for the simulator-scalability study (ISSUE 4).
SCALE_NODE_COUNTS: tuple[int, ...] = (100, 500, 2000)


@dataclasses.dataclass(frozen=True, slots=True)
class SweepPoint:
    """One point on a scaling sweep: x = swept value, y = makespans."""

    x: int
    total: float
    map_mean: float
    reduce_mean: float
    result: ScenarioResult


def _point(x: int, cloud: CloudSpec, job: MapReduceJobSpec) -> SweepPoint:
    result = run_scenario(cloud, job)
    m = result.metrics
    return SweepPoint(x=x, total=m.total, map_mean=m.map_stats.mean,
                      reduce_mean=m.reduce_stats.mean, result=result)


def node_scaling(node_counts: _t.Sequence[int] = (5, 10, 20, 40),
                 seed: int = 1, mr: bool = True,
                 input_size: float = 1e9) -> list[SweepPoint]:
    """Makespan for the same job on clusters of increasing size."""
    return [_point(n, CloudSpec(seed=seed, n_nodes=n, mr_clients=mr),
                   MapReduceJobSpec(f"nodes{n}", n_maps=max(n, 10),
                                    n_reducers=max(2, n // 4),
                                    input_size=input_size))
            for n in node_counts]


def granularity_scaling(map_counts: _t.Sequence[int] = (10, 20, 40, 80),
                        seed: int = 1, n_nodes: int = 20,
                        mr: bool = True,
                        input_size: float = 1e9) -> list[SweepPoint]:
    """Makespan for the same 1 GB job split into more, smaller map tasks."""
    return [_point(n_maps,
                   CloudSpec(seed=seed, n_nodes=n_nodes, mr_clients=mr),
                   MapReduceJobSpec(f"maps{n_maps}", n_maps=n_maps,
                                    n_reducers=5, input_size=input_size))
            for n_maps in map_counts]


def speedup(points: _t.Sequence[SweepPoint]) -> list[tuple[int, float]]:
    """Speedup relative to the first (smallest) point."""
    if not points:
        return []
    base = points[0].total
    return [(p.x, base / p.total) for p in points]


def _node_point(n_nodes: int, seed: int) -> dict[str, _t.Any]:
    return metrics_payload(node_scaling((n_nodes,), seed=seed)[0].result.metrics)


def _speedup_bounded(p: _t.Mapping[str, _t.Any]) -> bool:
    return all(p["nodes5"]["total"] / row["total"]
               <= int(label.removeprefix("nodes")) / 5 + 0.25
               for label, row in p.items())


NODE_SCALING = Study(
    name="node_scaling", seed=1,
    variants={f"nodes{n}": functools.partial(_node_point, n)
              for n in (5, 10, 20, 40)},
    columns=(
        col("cluster", "{variant}"),
        col("total", "{total:.1f} s"),
        ("speedup vs 5 nodes",
         lambda r: f"{r['rows']['nodes5']['total'] / r['total']:.2f}"),
        col("map mean", "{map_mean:.0f} s"),
        col("reduce mean", "{reduce_mean:.0f} s"),
    ),
    claims=(
        Claim("More volunteers help at first, then the curve saturates "
              "and reverses: with ~2 tasks per node the replication floor "
              "and backoff windows dominate.",
              lambda p: p["nodes10"]["total"] < p["nodes5"]["total"]
              and p["nodes40"]["total"] > 0.7 * p["nodes20"]["total"]),
        Claim("Speedup is never superlinear in the node count.",
              _speedup_bounded),
    ),
)


# ---------------------------------------------------------------------------
# Simulator-scalability study (events/sec, not makespan)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class ScalePoint:
    """One cluster-size measurement of simulator throughput."""

    n_nodes: int
    n_jobs: int
    events: int
    wall_s: float
    events_per_s: float
    makespan_s: float
    peak_queue_depth: int


def build_scale_cloud(n_nodes: int, seed: int = 1,
                      jobs_per_200_nodes: int = 1,
                      ) -> tuple[VolunteerCloud, list]:
    """Internet-style deployment for the scalability study.

    A well-provisioned project server (1 Gbit) serves ``n_nodes`` ADSL
    volunteers running BOINC-MR clients, with one concurrent 250 MB
    word-count job (50 maps x 50 reducers) per 200 volunteers — a real
    volunteer platform runs many jobs at once, and concurrent shuffles
    are what load the flow network with many independent components.
    Clients poll on a tightened 120 s backoff cap so reducers overlap.

    Returns the (unstarted) cloud and the list of submitted jobs; run
    with ``cloud.run_until(cloud.sim.all_of([j.done for j in jobs]))``.
    """
    spec = CloudSpec(
        seed=seed,
        mr_config=BoincMRConfig(),
        client_config=ClientConfig(backoff_max_s=120.0),
        server_link=SERVER_LINK,
    )
    cloud = VolunteerCloud.from_spec(spec)
    cloud.add_volunteers(n_nodes, mr=True, link_spec=ADSL_LINK)
    n_jobs = max(1, (n_nodes * jobs_per_200_nodes) // 200)
    jobs = [
        cloud.submit(MapReduceJobSpec(
            name=f"wordcount{j}", n_maps=50, n_reducers=50,
            input_size=250e6))
        for j in range(n_jobs)
    ]
    return cloud, jobs


def scale_out(n_nodes: int, seed: int = 1) -> ScalePoint:
    """Run the scalability workload at *n_nodes* and measure throughput."""
    cloud, jobs = build_scale_cloud(n_nodes, seed=seed)
    t0 = time.perf_counter()
    cloud.run_until(cloud.sim.all_of([j.done for j in jobs]))
    wall = time.perf_counter() - t0
    events = cloud.sim.dispatch_count
    return ScalePoint(
        n_nodes=n_nodes,
        n_jobs=len(jobs),
        events=events,
        wall_s=wall,
        events_per_s=events / wall if wall > 0 else 0.0,
        makespan_s=cloud.sim.now,
        peak_queue_depth=cloud.sim.peak_pending,
    )
