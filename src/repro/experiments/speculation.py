"""Speculative execution vs the paper's straggler pathology.

The paper's Fig. 4 straggler and its "Minimizing Impact of Slower Nodes"
discussion motivate backup tasks (Hadoop's classic mitigation, absent from
BOINC).  This study runs the word-count job with one genuinely slow node
(the server's speed estimate is 20x optimistic), with and without
speculative replicas bounding the damage.
"""

from __future__ import annotations

import functools
import typing as _t

from ..boinc.client import ClientConfig
from ..boinc.server import ServerConfig
from ..core import CloudSpec, MapReduceJobSpec, VolunteerCloud
from .study import VARIANT, Claim, Study, col


def slow_node_payload(speculative: bool, seed: int) -> dict[str, _t.Any]:
    """19 healthy BOINC-MR hosts plus ``slowpoke`` at 1/20 speed."""
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed, server_config=ServerConfig(
            speculative_execution=speculative)))
    cloud.add_volunteers(19, mr=True)
    cloud.add_volunteer("slowpoke", mr=True,
                        config=ClientConfig(speed_factor=0.05))
    job = cloud.run_job(MapReduceJobSpec(
        "spec", n_maps=20, n_reducers=5, input_size=1e9),
        timeout=96 * 3600)
    backups = cloud.tracer.select("transitioner.speculative")
    return {
        "total": job.makespan(),
        "backups": len(backups),
        "backups_for_slow_node": sum(r["host"] == "slowpoke"
                                     for r in backups),
        "laggard_hosts": len({r["host"] for r in backups}),
        "results": len(cloud.server.db.results),
    }


STUDY = Study(
    name="speculation", seed=1,
    variants={"no_speculation": functools.partial(slow_node_payload, False),
              "speculation": functools.partial(slow_node_payload, True)},
    columns=(
        VARIANT,
        col("total", "{total:.0f} s"),
        col("backup replicas", "{backups}"),
        col("hosts backed up", "{laggard_hosts}"),
    ),
    claims=(
        Claim("Hadoop-style backup replicas rescue the makespan from one "
              "20x-slow node: under 0.7x of the run without them.",
              lambda p: p["speculation"]["total"]
              < 0.7 * p["no_speculation"]["total"]),
        Claim("Backups fire for the compute straggler and for healthy "
              "hosts whose finished results sit unreported in backoff "
              "windows, never more than one per result that existed.",
              lambda p: p["speculation"]["backups_for_slow_node"] > 0
              and p["speculation"]["backups"]
              <= p["speculation"]["results"]),
    ),
)
