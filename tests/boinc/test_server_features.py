"""Tests for speculative execution."""

from repro.boinc import ClientConfig, ServerConfig
from repro.core import CloudSpec, JobPhase, MapReduceJobSpec, VolunteerCloud


def spec(name="job", **kwargs):
    defaults = dict(n_maps=6, n_reducers=2, input_size=60e6)
    defaults.update(kwargs)
    return MapReduceJobSpec(name, **defaults)


class TestSpeculativeExecution:
    def slow_node_cloud(self, speculative, speed_factor=0.05, seed=1):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=seed, server_config=ServerConfig(
                speculative_execution=speculative)))
        cloud.add_volunteers(7, mr=True)
        # One genuine straggler: the server's speed estimate is 20x off
        # (benchmark speed 1.0, real application speed 0.05).
        cloud.add_volunteer("slowpoke", mr=True,
                            config=ClientConfig(speed_factor=speed_factor))
        return cloud

    def test_backup_replicas_created_for_stragglers(self):
        cloud = self.slow_node_cloud(speculative=True)
        job = cloud.run_job(spec(), timeout=48 * 3600)
        assert job.phase is JobPhase.DONE
        speculative = cloud.tracer.select("transitioner.speculative")
        assert len(speculative) >= 1
        assert any(r["host"] == "slowpoke" for r in speculative)

    def test_no_speculation_when_disabled(self):
        cloud = self.slow_node_cloud(speculative=False)
        cloud.run_job(spec(), timeout=48 * 3600)
        assert cloud.tracer.select("transitioner.speculative") == []

    def test_speculation_shortens_makespan_with_slow_node(self):
        def run(speculative):
            cloud = self.slow_node_cloud(speculative)
            job = cloud.run_job(spec(), timeout=48 * 3600)
            return job.makespan()

        assert run(True) < run(False)

    def test_speculation_bounded_by_max_total_results(self):
        cloud = self.slow_node_cloud(speculative=True, speed_factor=0.01)
        job = cloud.run_job(spec(), timeout=72 * 3600)
        assert job.phase is JobPhase.DONE
        for wu in cloud.server.db.workunits.values():
            assert len(cloud.server.db.results_for_wu(wu.id)) <= \
                wu.max_total_results

    def test_healthy_cluster_barely_speculates(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=1, server_config=ServerConfig(speculative_execution=True)))
        cloud.add_volunteers(8, mr=True)
        cloud.run_job(spec(), timeout=48 * 3600)
        assert len(cloud.tracer.select("transitioner.speculative")) <= 2

