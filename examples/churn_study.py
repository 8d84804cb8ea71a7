#!/usr/bin/env python3
"""BOINC-MR on volunteers that actually behave like volunteers.

The paper's evaluation ran on a dedicated cluster; this example turns on
the two-state availability model (exponentially distributed ON/OFF
periods plus permanent departures) and shows the safety nets working:
deadline timeouts spawn replacement replicas, and reducers that lose a
mapper mid-download retry and then fall back to the server copy.

Run:  python examples/churn_study.py
"""

from repro.core import CloudSpec, MapReduceJobSpec
from repro.experiments import run_churn, run_scenario


def main() -> None:
    print("baseline: stable 20-node BOINC-MR cluster ...")
    stable = run_scenario(
        CloudSpec(seed=3, n_nodes=20, mr_clients=True),
        MapReduceJobSpec("churn", n_maps=20, n_reducers=5))
    print(f"  total {stable.metrics.total:8.1f}s\n")

    for mean_off, departure in [(300.0, 0.0), (600.0, 0.05), (900.0, 0.15)]:
        out = run_churn(seed=3, mean_on_s=1800.0, mean_off_s=mean_off,
                        departure_prob=departure)
        slowdown = out["total"] / stable.metrics.total
        print(f"churn: OFF~{mean_off / 60:.0f}min, "
              f"{departure * 100:.0f}% departures")
        print(f"  total {out['total']:8.1f}s (x{slowdown:.2f} vs stable)")
        print(f"  {out['transitions']} availability transitions, "
              f"{out['departed']} hosts gone for good")
        print(f"  {out['replacement_results']} replacement results created, "
              f"{out['server_fallbacks']} reduce inputs recovered from the "
              f"server, {out['peer_fetches']} from peers\n")

    print("the job always finishes — replication, deadlines, and the "
          "retry-then-server\nfallback absorb the volatility the paper "
          "designed for but never measured.")


if __name__ == "__main__":
    main()
