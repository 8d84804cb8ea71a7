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

import dataclasses

from ..boinc.server import ServerConfig
from ..core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from ..volunteers import AvailabilityModel, ChurnController
from .scenario import ScenarioResult, run_scenario


@dataclasses.dataclass(slots=True)
class ChurnOutcome:
    """Churn-study result: job metrics plus the volatility it survived."""

    result: ScenarioResult
    transitions: int
    departed: int
    peer_fetches: int
    server_fallbacks: int
    replacement_results: int

    @property
    def total(self) -> float:
        """Total job makespan in seconds."""
        return self.result.metrics.total


def churn_scenario(seed: int = 1, mr: bool = True
                   ) -> tuple[CloudSpec, MapReduceJobSpec]:
    """The churn-study deployment (20 nodes, 20 maps, 5 reducers)."""
    cloud = CloudSpec(
        seed=seed, n_nodes=20, mr_clients=mr,
        # Volatile hosts need a short deadline or lost results stall the
        # job for hours; 20 minutes is generous for ~2-4 minute tasks.
        server_config=ServerConfig(delay_bound_s=1200.0),
        # None = vanilla BOINC, which keeps the server copy anyway.
        mr_config=BoincMRConfig(upload_map_outputs=True) if mr else None,
    )
    return cloud, MapReduceJobSpec("churn", n_maps=20, n_reducers=5)


def run_churn(seed: int = 1, mean_on_s: float = 1800.0,
              mean_off_s: float = 600.0, departure_prob: float = 0.05,
              mr: bool = True) -> ChurnOutcome:
    """Run the churn scenario; raises if the job cannot finish at all."""
    spec, job = churn_scenario(seed, mr=mr)
    cloud = VolunteerCloud.from_spec(spec)
    model = AvailabilityModel(mean_on_s=mean_on_s, mean_off_s=mean_off_s,
                              departure_prob=departure_prob)
    controller = ChurnController(cloud.sim, tracer=cloud.tracer)
    rng = cloud.rngs.stream("churn")
    cloud.start()
    for client in cloud.clients:
        controller.manage(client, model.periods(rng))
    result = run_scenario(cloud, job, timeout_s=24 * 3600.0)
    replacement = len(cloud.tracer.select("transitioner.new_result"))
    peer_fetches = sum(c.input_fetcher.peer_fetches for c in cloud.clients)
    fallbacks = sum(c.input_fetcher.server_fallbacks for c in cloud.clients)
    return ChurnOutcome(
        result=result,
        transitions=controller.transitions,
        departed=len(controller.departed),
        peer_fetches=peer_fetches,
        server_fallbacks=fallbacks,
        replacement_results=replacement,
    )
