"""Workflow failure propagation and multi-seed Table I stability."""

import statistics

import pytest

from repro.core import (
    BoincMRConfig,
    CloudSpec,
    MapReduceJobSpec,
    VolunteerCloud,
    WorkflowStage,
    pipeline,
)


class TestWorkflowFailure:
    def test_failed_stage_fails_workflow(self):
        # Every execution crashes: each map workunit exhausts its error
        # budget, the transitioner abandons it, and the JobTracker fails
        # the job — which must fail the workflow at stage 0.
        class Exploding:
            def execute(self, client, task):
                raise RuntimeError("bad binary")

        cloud = VolunteerCloud.from_spec(
            CloudSpec(seed=1, mr_config=BoincMRConfig()))
        for client in cloud.add_volunteers(6, mr=True):
            client.executor = Exploding()
        wf = pipeline(cloud, "doomed", 60e6,
                      WorkflowStage("a", n_maps=6, n_reducers=2),
                      WorkflowStage("never_runs", n_maps=3, n_reducers=1))
        with pytest.raises(RuntimeError, match="failed at stage"):
            wf.run(timeout=48 * 3600)
        assert not wf.done.ok
        # Stage 0 was submitted, stage 1 never was.
        assert len(wf.jobs) == 1
        assert "never_runs" not in {
            wu.mr_job for wu in cloud.server.db.workunits.values()
            if wu.mr_job is not None
        } - {"doomed.a"}

    def test_makespan_none_until_finished(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
        cloud.add_volunteers(6, mr=True)
        wf = pipeline(cloud, "pending", 30e6,
                      WorkflowStage("a", n_maps=3, n_reducers=1))
        assert wf.makespan() is None
        wf.run()
        assert wf.makespan() is not None


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
