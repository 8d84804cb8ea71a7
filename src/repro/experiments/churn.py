"""Churn study: BOINC-MR under actual volunteer volatility.

The paper evaluated on a dedicated cluster and explicitly deferred
failure tolerance; this extension experiment runs the word-count job with
the two-state availability model of :mod:`repro.volunteers` and measures
what the paper's safety nets buy:

- replication + deadline timeouts recover work lost to offline hosts;
- the reduce phase's n-retries-then-server fallback keeps the job alive
  when mappers disappear while serving outputs (requires
  ``upload_map_outputs``, as the paper notes).
"""

from __future__ import annotations

import typing as _t

from ..boinc.server import ServerConfig
from ..core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from ..volunteers import AvailabilityModel, ChurnController
from .scenario import fetch_counts, run_scenario
from .study import VARIANT, Claim, Study, col


_JOB = MapReduceJobSpec("churn", n_maps=20, n_reducers=5)
#: The ``churn`` variant's volunteers: ON for 30 min and OFF for 10 min
#: on average, and 5 % of OFF transitions permanent.
CHURN = AvailabilityModel(mean_on_s=1800.0, mean_off_s=600.0,
                          departure_prob=0.05)


def churn_scenario(seed: int) -> tuple[CloudSpec, MapReduceJobSpec]:
    """The churn-study deployment (20 BOINC-MR nodes, 20 maps, 5
    reducers)."""
    cloud = CloudSpec(
        seed=seed, n_nodes=20, mr_clients=True,
        # Volatile hosts need a short deadline or lost results stall the
        # job for hours; 20 minutes is generous for ~2-4 minute tasks.
        server_config=ServerConfig(delay_bound_s=1200.0),
        mr_config=BoincMRConfig(upload_map_outputs=True),
    )
    return cloud, _JOB


def _payload(cloud: VolunteerCloud, total: float, transitions: int = 0,
             departed: int = 0) -> dict[str, _t.Any]:
    return {
        "total": total,
        "transitions": transitions,
        "departed": departed,
        **fetch_counts(cloud),
        "replacement_results": len(
            cloud.tracer.select("transitioner.new_result")),
    }


def run_churn(seed: int) -> dict[str, _t.Any]:
    """Run the churn scenario under :data:`CHURN` (the study's ``churn``
    variant; ``examples/churn_study.py`` sweeps other models): the
    makespan plus the volatility the job survived.  Raises if the job
    cannot finish at all."""
    spec, job = churn_scenario(seed)
    cloud = VolunteerCloud.from_spec(spec)
    controller = ChurnController(cloud.sim, tracer=cloud.tracer)
    rng = cloud.rngs.stream("churn")
    cloud.start()
    for client in cloud.clients:
        controller.manage(client, CHURN.periods(rng))
    result = run_scenario(cloud, job, timeout_s=24 * 3600.0)
    return _payload(cloud, result.total, controller.transitions,
                    len(controller.departed))


def run_stable(seed: int) -> dict[str, _t.Any]:
    """The same job on 20 BOINC-MR hosts that never leave."""
    result = run_scenario(CloudSpec(seed=seed, n_nodes=20, mr_clients=True),
                          _JOB)
    return _payload(result.cloud, result.total)


STUDY = Study(
    name="churn", seed=3,
    variants={"stable": run_stable, "churn": run_churn},
    columns=(
        VARIANT,
        col("total", "{total:.1f} s"),
        ("vs stable",
         lambda r: f"×{r['total'] / r['rows']['stable']['total']:.2f}"),
        col("availability transitions", "{transitions}"),
        col("departed for good", "{departed}"),
        col("peer fetches", "{peer_fetches}"),
        col("server fallbacks", "{server_fallbacks}"),
        col("replacement results", "{replacement_results}"),
    ),
    claims=(
        Claim("The job survives exponential ON(30 min)/OFF(10 min) "
              "availability with 5 % permanent departures: it completes "
              "through more than ten availability transitions.",
              lambda p: p["churn"]["transitions"] > 10),
        Claim("Churn costs makespan against hosts that never leave.",
              lambda p: p["churn"]["total"] > p["stable"]["total"]),
        Claim("The paper's safety nets actually fire: replacement results "
              "after deadline timeouts, and reduce inputs fetched from "
              "peers or recovered from the server copy.",
              lambda p: p["churn"]["replacement_results"] > 0
              and p["churn"]["server_fallbacks"]
              + p["churn"]["peer_fetches"] > 0),
    ),
)
