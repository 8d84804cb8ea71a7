"""Task granularity: the same job split into more, smaller map tasks."""

import pytest

from repro.core import CloudSpec, MapReduceJobSpec
from repro.experiments import run_scenario

MAP_COUNTS = (4, 8, 16)


class TestGranularity:
    @pytest.fixture(scope="class")
    def points(self):
        # Small cluster/input so the sweep stays fast.
        return {n_maps: run_scenario(
                    CloudSpec(seed=1, n_nodes=8, mr_clients=True),
                    MapReduceJobSpec(f"maps{n_maps}", n_maps=n_maps,
                                     n_reducers=5, input_size=160e6))
                for n_maps in MAP_COUNTS}

    def test_every_point_completes(self, points):
        assert len(points) == 3
        for p in points.values():
            assert p.total > 0
            assert p.job.finished

    def test_map_mean_shrinks_with_granularity(self, points):
        means = [points[n].metrics.map_stats.mean for n in MAP_COUNTS]
        # Smaller chunks -> shorter per-task intervals (the dominant term).
        assert means[-1] < means[0]

    def test_x_axis_recorded(self, points):
        assert [p.job.spec.n_maps for p in points.values()] == [4, 8, 16]
