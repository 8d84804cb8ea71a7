"""Replication-factor study: redundancy cost vs byzantine resilience.

The paper fixes replication 2 / quorum 2 ("each work unit is replicated
into 2 results ... only validated if both results are identical") without
examining the trade-off.  This study sweeps the replication factor against
byzantine populations and measures:

- the redundancy overhead (results executed per workunit, makespan);
- the *wrong-result acceptance rate*: how often a corrupt output becomes
  the canonical result (possible when matching corrupt replicas — or, at
  quorum 1, any corrupt replica — slip through).

Corrupt digests are unique per execution in our byzantine model (the
worst case for collusion is excluded), so quorum >= 2 never accepts a
corrupt result; quorum 1 accepts them at roughly the byzantine rate.
"""

from __future__ import annotations

import functools
import typing as _t

from ..analysis import job_metrics
from ..core import CloudSpec, MapReduceJobSpec, VolunteerCloud
from .study import VARIANT, Claim, Study, col


def run_replication(replication: int, quorum: int,
                    byzantine_rate: float = 0.0, seed: int = 5,
                    n_nodes: int = 12) -> dict[str, _t.Any]:
    """Run one job at a given replication factor / quorum setting (it is
    the ``replication`` campaign cell): cost vs byzantine resilience."""
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=seed))
    cloud.add_volunteers(n_nodes, mr=True, byzantine_rate=byzantine_rate)
    spec = MapReduceJobSpec("repl", n_maps=12, n_reducers=3,
                            input_size=120e6, replication=replication,
                            quorum=quorum)
    cloud.run_job(spec, timeout=96 * 3600)
    executed = sum(1 for r in cloud.server.db.results.values()
                   if r.reported_at is not None)
    corrupt = 0
    for wu in cloud.server.db.workunits.values():
        if wu.canonical_result_id is None:
            continue
        canonical = cloud.server.db.results[wu.canonical_result_id]
        if canonical.output and canonical.output.digest.startswith("corrupt:"):
            corrupt += 1
    workunits = len(cloud.server.db.workunits)
    return {
        "total": job_metrics(cloud.tracer, "repl").total,
        "replication": replication,
        "quorum": quorum,
        "byzantine_rate": byzantine_rate,
        "results_executed": executed,
        "corrupt_accepted": corrupt,
        "workunits": workunits,
        # Executed results per workunit (1.0 = no redundancy).
        "overhead": executed / workunits,
    }


#: The paper-relevant points: no redundancy, the paper's 2/2, and 3/2.
POINTS: tuple[tuple[int, int], ...] = ((1, 1), (2, 2), (3, 2))

STUDY = Study(
    name="replication", seed=5,
    variants={f"{r}/{q}": functools.partial(run_replication, r, q,
                                            byzantine_rate=0.2)
              for r, q in POINTS},
    columns=(
        col("replication/quorum", "{variant}"),
        col("total", "{total:.0f} s"),
        col("overhead", "{overhead:.2f}x"),
        col("corrupt canonicals accepted",
            "{corrupt_accepted}/{workunits}"),
    ),
    claims=(
        Claim("No replication is cheap (under 1.5x executed work) but "
              "unsafe: with 20 % byzantine hosts it accepts corrupt "
              "canonical results.",
              lambda p: p["1/1"]["overhead"] < 1.5
              and p["1/1"]["corrupt_accepted"] > 0),
        Claim("The paper's 2/2 accepts no corrupt result, at 2x or more "
              "executed work.",
              lambda p: p["2/2"]["corrupt_accepted"] == 0
              and p["2/2"]["overhead"] >= 2.0),
        Claim("Overhead grows with the replication factor.",
              lambda p: p["1/1"]["overhead"] <= p["2/2"]["overhead"]
              <= p["3/2"]["overhead"]),
    ),
)
