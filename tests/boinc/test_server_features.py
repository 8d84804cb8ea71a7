"""Tests for speculative execution, homogeneous redundancy, and
locality-aware scheduling."""

import pytest

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
                speculative_execution=speculative,
                speculative_factor=3.0,
                speculative_min_elapsed_s=60.0)))
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
            seed=1, server_config=ServerConfig(
                speculative_execution=True, speculative_factor=3.0,
                speculative_min_elapsed_s=600.0)))
        cloud.add_volunteers(8, mr=True)
        cloud.run_job(spec(), timeout=48 * 3600)
        assert len(cloud.tracer.select("transitioner.speculative")) <= 2


class TestHomogeneousRedundancy:
    def platform_cloud(self, hr_on, seed=3):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=seed,
            server_config=ServerConfig(homogeneous_redundancy=hr_on)))
        for i in range(5):
            cloud.add_volunteer(f"linux{i}", mr=True, hr_class="x86-linux",
                                platform_variance=True)
        for i in range(5):
            cloud.add_volunteer(f"win{i}", mr=True, hr_class="x86-windows",
                                platform_variance=True)
        return cloud

    def test_hr_restricts_replicas_to_one_class(self):
        cloud = self.platform_cloud(hr_on=True)
        job = cloud.run_job(spec(), timeout=48 * 3600)
        assert job.phase is JobPhase.DONE
        for wu in cloud.server.db.workunits.values():
            classes = {
                cloud.server.db.hosts[r.host_id].hr_class
                for r in cloud.server.db.results_for_wu(wu.id)
                if r.host_id is not None
            }
            assert len(classes) == 1, f"wu {wu.id} crossed platforms"

    def test_platform_variant_app_validates_cleanly_under_hr(self):
        cloud = self.platform_cloud(hr_on=True)
        cloud.run_job(spec(), timeout=48 * 3600)
        assert len(cloud.tracer.select("validator.inconclusive")) == 0

    def test_without_hr_platform_variance_wastes_work(self):
        """Cross-platform replica pairs never match; the validator keeps
        asking for more replicas until two land on the same platform."""
        cloud = self.platform_cloud(hr_on=False)
        job = cloud.run_job(spec(), timeout=96 * 3600)
        assert job.phase is JobPhase.DONE
        assert len(cloud.tracer.select("validator.inconclusive")) > 0
        hr_cloud = self.platform_cloud(hr_on=True)
        hr_cloud.run_job(spec(), timeout=96 * 3600)
        assert len(hr_cloud.server.db.results) < len(cloud.server.db.results)


class TestLocalityScheduling:
    def run(self, locality, seed=2):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=seed,
            server_config=ServerConfig(locality_scheduling=locality)))
        cloud.add_volunteers(8, mr=True)
        job = cloud.run_job(spec(), timeout=48 * 3600)
        assert job.phase is JobPhase.DONE
        local = len(cloud.tracer.select("peer.local"))
        fetched = len(cloud.tracer.select("peer.fetched"))
        return local, fetched

    def test_locality_increases_local_reads(self):
        local_on, fetched_on = self.run(True)
        local_off, fetched_off = self.run(False)
        assert local_on + fetched_on == local_off + fetched_off
        assert local_on >= local_off

    def test_job_completes_with_locality(self):
        local, fetched = self.run(True)
        assert local + fetched > 0
