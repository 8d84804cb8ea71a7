#!/usr/bin/env python3
"""BOINC-MR on volunteers that actually behave like volunteers.

The paper's evaluation ran on a dedicated cluster; this example turns on
the two-state availability model (exponentially distributed ON/OFF
periods plus permanent departures) and shows the safety nets working:
deadline timeouts spawn replacement replicas, and reducers that lose a
mapper mid-download retry and then fall back to the server copy.

Run:  python examples/churn_study.py
"""

from repro.core import CloudSpec, MapReduceJobSpec, VolunteerCloud
from repro.experiments import run_scenario
from repro.experiments.churn import churn_scenario
from repro.experiments.scenario import fetch_counts
from repro.volunteers import AvailabilityModel, ChurnController


def churn_run(model: AvailabilityModel, stable_s: float) -> None:
    """The churn study's deployment at seed 3, every host driven by
    *model*; prints what the job survived against the *stable_s*
    makespan."""
    spec, job = churn_scenario(seed=3)
    cloud = VolunteerCloud.from_spec(spec)
    controller = ChurnController(cloud.sim, tracer=cloud.tracer)
    rng = cloud.rngs.stream("churn")
    cloud.start()
    for client in cloud.clients:
        controller.manage(client, model.periods(rng))
    result = run_scenario(cloud, job, timeout_s=24 * 3600.0)
    fetches = fetch_counts(cloud)
    print(f"  total {result.total:8.1f}s "
          f"(x{result.total / stable_s:.2f} vs stable)")
    print(f"  {controller.transitions} availability transitions, "
          f"{len(controller.departed)} hosts gone for good")
    print(f"  {len(cloud.tracer.select('transitioner.new_result'))} "
          f"replacement results created, {fetches['server_fallbacks']} "
          f"reduce inputs recovered from the server, "
          f"{fetches['peer_fetches']} from peers\n")


def main() -> None:
    print("baseline: stable 20-node BOINC-MR cluster ...")
    stable = run_scenario(
        CloudSpec(seed=3, n_nodes=20, mr_clients=True),
        MapReduceJobSpec("churn", n_maps=20, n_reducers=5))
    print(f"  total {stable.metrics.total:8.1f}s\n")

    for mean_off, departure in [(300.0, 0.0), (600.0, 0.05), (900.0, 0.15)]:
        print(f"churn: OFF~{mean_off / 60:.0f}min, "
              f"{departure * 100:.0f}% departures")
        churn_run(AvailabilityModel(mean_on_s=1800.0, mean_off_s=mean_off,
                                    departure_prob=departure),
                  stable.metrics.total)

    print("the job always finishes — replication, deadlines, and the "
          "retry-then-server\nfallback absorb the volatility the paper "
          "designed for but never measured.")


if __name__ == "__main__":
    main()
