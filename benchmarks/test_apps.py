"""Benchmark: which applications suit BOINC-MR? (Section IV.B future work)

"In future iterations, we expect to experiment with a wider range of
applications, to evaluate which scenarios are the most suited."  This
bench runs three application cost profiles — word count, distributed
grep, inverted index — through both vanilla BOINC and BOINC-MR and prints
where inter-client transfers pay off: the benefit scales with the volume
of intermediate data that would otherwise round-trip through the server.
"""

import pytest

from repro.core import (GREP, INVERTED_INDEX, WORD_COUNT, CloudSpec,
                        MapReduceJobSpec)
from repro.experiments import run_scenario

APPS = [
    ("wordcount", WORD_COUNT),
    ("grep", GREP),
    ("invindex", INVERTED_INDEX),
]


def run_pair(app_name, cost, seed=1):
    job = dict(n_maps=20, n_reducers=5, cost=cost, app_name=app_name)
    vanilla = run_scenario(
        CloudSpec(seed=seed, n_nodes=20),
        MapReduceJobSpec(f"{app_name}_vanilla", **job))
    mr = run_scenario(
        CloudSpec(seed=seed, n_nodes=20, mr_clients=True),
        MapReduceJobSpec(f"{app_name}_mr", **job))
    return vanilla, mr


@pytest.fixture(scope="module")
def outcomes():
    return {name: run_pair(name, cost) for name, cost in APPS}


def test_app_suitability_table(benchmark, outcomes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print("Application suitability: vanilla BOINC vs BOINC-MR (reduce phase)")
    for name, (vanilla, mr) in outcomes.items():
        v, m = vanilla.metrics, mr.metrics
        cost = dict(APPS)[name]
        print(f"  {name:10s} intermediate_ratio {cost.intermediate_ratio:4.2f}"
              f"  reduce {v.reduce_stats.mean:7.1f}s -> {m.reduce_stats.mean:7.1f}s"
              f"  total {v.total:7.1f}s -> {m.total:7.1f}s")


def test_all_complete(outcomes):
    for vanilla, mr in outcomes.values():
        assert vanilla.job.finished and mr.job.finished


def test_heavy_intermediate_apps_gain_most_on_reduce(outcomes):
    """BOINC-MR's reduce-phase advantage grows with intermediate volume."""
    gains = {}
    for name, (vanilla, mr) in outcomes.items():
        gains[name] = (vanilla.metrics.reduce_stats.mean
                       - mr.metrics.reduce_stats.mean)
    assert gains["invindex"] > gains["grep"]
    assert gains["wordcount"] > gains["grep"]


def test_grep_roughly_indifferent(outcomes):
    """Near-zero intermediate data -> inter-client transfers barely matter."""
    vanilla, mr = outcomes["grep"]
    diff = abs(vanilla.metrics.reduce_stats.mean
               - mr.metrics.reduce_stats.mean)
    assert diff < 0.5 * vanilla.metrics.reduce_stats.mean
