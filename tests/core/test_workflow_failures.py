"""Multi-seed Table I stability."""

import statistics

import pytest

from repro.core import CloudSpec, MapReduceJobSpec


class TestTable1Stability:
    """The relational claims must hold across seeds, not just seed 1."""

    @pytest.fixture(scope="class")
    def seeds_metrics(self):
        from repro.experiments import run_scenario

        out = []
        for seed in (1, 2, 3):
            vanilla = run_scenario(
                CloudSpec(seed=seed, n_nodes=20),
                MapReduceJobSpec("stab_v", n_maps=20, n_reducers=5))
            mr = run_scenario(
                CloudSpec(seed=seed, n_nodes=20, mr_clients=True),
                MapReduceJobSpec("stab_m", n_maps=20, n_reducers=5))
            out.append((vanilla.metrics, mr.metrics))
        return out

    def test_mr_reduce_faster_every_seed(self, seeds_metrics):
        for vanilla, mr in seeds_metrics:
            assert mr.reduce_stats.mean < vanilla.reduce_stats.mean

    def test_totals_comparable_every_seed(self, seeds_metrics):
        for vanilla, mr in seeds_metrics:
            assert 0.5 < mr.total / vanilla.total < 1.3

    def test_totals_in_band_with_low_dispersion(self, seeds_metrics):
        totals = [v.total for v, _m in seeds_metrics]
        assert all(700 < t < 2000 for t in totals)
        spread = statistics.pstdev(totals) / statistics.fmean(totals)
        assert spread < 0.35  # noisy, but not wild
