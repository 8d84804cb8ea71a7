"""Benchmark: BOINC-MR under volunteer churn (extension study).

The paper evaluated on a dedicated cluster ("we did not consider node
failure in our tests") but designed for volatility; this bench measures
what its safety nets deliver when hosts actually come and go."""

import pytest

from repro.core import CloudSpec, MapReduceJobSpec
from repro.experiments import run_churn, run_scenario


@pytest.fixture(scope="module")
def outcomes():
    stable = run_scenario(
        CloudSpec(seed=3, n_nodes=20, mr_clients=True),
        MapReduceJobSpec("churn", n_maps=20, n_reducers=5))
    churny = run_churn(seed=3, mean_on_s=1800.0, mean_off_s=600.0,
                       departure_prob=0.05)
    return stable, churny


def test_churn_summary(benchmark, outcomes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    stable, churny = outcomes
    print()
    print("Churn study (20 BOINC-MR nodes, exp ON 30min / OFF 10min, 5% departures)")
    print(f"  stable  total {stable.metrics.total:8.1f}s")
    print(f"  churn   total {churny.total:8.1f}s  "
          f"(x{churny.total / stable.metrics.total:.2f})")
    print(f"  transitions {churny.transitions}  departed {churny.departed}")
    print(f"  peer fetches {churny.peer_fetches}  "
          f"server fallbacks {churny.server_fallbacks}  "
          f"replacement results {churny.replacement_results}")


def test_job_survives_churn(outcomes):
    _stable, churny = outcomes
    assert churny.result.job.finished
    assert churny.transitions > 10


def test_churn_costs_makespan(outcomes):
    stable, churny = outcomes
    assert churny.total > stable.metrics.total


def test_safety_nets_used(outcomes):
    """The fallback and replication machinery must actually fire —
    otherwise the run does not exercise the paper's design point."""
    _stable, churny = outcomes
    assert churny.replacement_results > 0
    assert churny.server_fallbacks > 0 or churny.peer_fetches > 0
