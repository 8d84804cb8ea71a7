"""Integration tests: full BOINC-MR deployments end to end."""

import pytest

from repro.boinc.model import WorkunitState
from repro.core import (
    BoincMRConfig,
    CloudSpec,
    JobPhase,
    MapReduceJobSpec,
    VolunteerCloud,
)
from repro.faults import FaultSpec
from repro.net import NatBox, NatType
from repro.sim import SimulationError

# Small, fast job geometry used throughout (input scaled down 100x).
SMALL = dict(n_maps=6, n_reducers=2, input_size=60e6)


def small_spec(name="job", **kwargs):
    params = dict(SMALL)
    params.update(kwargs)
    return MapReduceJobSpec(name, **params)


def mr_cloud(seed=1, n=8, mr_config=None, **volunteer_kwargs):
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=seed, mr_config=mr_config))
    cloud.add_volunteers(n, mr=True, **volunteer_kwargs)
    return cloud


def legacy_cloud(seed=1, n=8, **volunteer_kwargs):
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed,
        mr_config=BoincMRConfig(upload_map_outputs=True,
                                reduce_from_peers=False)))
    cloud.add_volunteers(n, mr=False, **volunteer_kwargs)
    return cloud


class TestEndToEnd:
    def test_legacy_boinc_completes(self):
        cloud = legacy_cloud()
        job = cloud.run_job(small_spec())
        assert job.phase is JobPhase.DONE
        assert job.makespan() > 0

    def test_boinc_mr_completes(self):
        cloud = mr_cloud()
        job = cloud.run_job(small_spec())
        assert job.phase is JobPhase.DONE

    def test_mr_mode_moves_data_between_clients(self):
        cloud = mr_cloud()
        cloud.run_job(small_spec())
        peer = sum(getattr(c.input_fetcher, "peer_fetches", 0)
                   for c in cloud.clients)
        local = len(cloud.tracer.select("peer.local"))
        # Every reduce replica obtained every partition — from a peer, or
        # from its own disk when it mapped that index itself (locality).
        assert peer + local == SMALL["n_maps"] * SMALL["n_reducers"] * 2
        assert peer > 0

    def test_mr_hash_only_mode_uploads_no_map_output(self):
        cloud = mr_cloud()
        job = cloud.run_job(small_spec())
        spec = job.spec
        for i in range(spec.n_maps):
            for r in range(spec.n_reducers):
                assert not cloud.server.dataserver.has(spec.map_output_file(i, r))

    def test_legacy_mode_uploads_map_outputs(self):
        cloud = legacy_cloud()
        job = cloud.run_job(small_spec())
        spec = job.spec
        assert cloud.server.dataserver.has(spec.map_output_file(0, 0))

    def test_reduce_outputs_land_on_server_in_both_modes(self):
        for cloud in (legacy_cloud(), mr_cloud()):
            job = cloud.run_job(small_spec())
            for r in range(job.spec.n_reducers):
                assert cloud.server.dataserver.has(job.spec.reduce_output_file(r))

    def test_all_workunits_assimilated(self):
        cloud = mr_cloud()
        cloud.run_job(small_spec())
        states = {wu.state for wu in cloud.server.db.workunits.values()}
        assert states == {WorkunitState.ASSIMILATED}

    def test_mixed_population_legacy_runs_reduces_via_server(self):
        # Retro-compatibility (Section III.B): ordinary clients execute MR
        # jobs with data through the server.
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=1, mr_config=BoincMRConfig(
                upload_map_outputs=True, reduce_from_peers=True)))
        cloud.add_volunteers(4, mr=True)
        cloud.add_volunteers(4, mr=False)
        job = cloud.run_job(small_spec())
        assert job.phase is JobPhase.DONE

    def test_two_jobs_back_to_back(self):
        cloud = mr_cloud()
        job1 = cloud.run_job(small_spec("first"))
        job2 = cloud.run_job(small_spec("second"))
        assert job1.phase is JobPhase.DONE
        assert job2.phase is JobPhase.DONE
        assert job2.finished_at > job1.finished_at

    def test_concurrent_jobs(self):
        cloud = mr_cloud(n=10)
        a = cloud.submit(small_spec("a"))
        b = cloud.submit(small_spec("b"))
        cloud.run_until(cloud.sim.all_of([a.done, b.done]))
        assert a.phase is JobPhase.DONE and b.phase is JobPhase.DONE

    def test_serving_store_cleared_after_job(self):
        cloud = mr_cloud()
        spec = cloud.run_job(small_spec()).spec
        partitions = [spec.map_output_file(i, r) for i in range(spec.n_maps)
                      for r in range(spec.n_reducers)]
        assert cloud.tracer.select("peer.serving")  # the maps served them
        for client in cloud.clients:
            assert not any(map(client.peer_store.available, partitions))

    def test_duplicate_job_name_rejected(self):
        cloud = mr_cloud()
        cloud.submit(small_spec("dup"))
        with pytest.raises(ValueError):
            cloud.submit(small_spec("dup"))

    def test_timeout_raises(self):
        cloud = mr_cloud()
        job = cloud.submit(small_spec())
        with pytest.raises(SimulationError, match="did not fire"):
            cloud.run_until(job.done, timeout=5.0)


class TestDeterminism:
    def run_once(self, seed):
        cloud = mr_cloud(seed=seed)
        job = cloud.run_job(small_spec())
        return job.makespan(), dict(cloud.tracer.counts)

    def test_same_seed_identical(self):
        assert self.run_once(7) == self.run_once(7)

    def test_different_seeds_differ(self):
        m1, _ = self.run_once(7)
        m2, _ = self.run_once(8)
        assert m1 != m2


class TestByzantine:
    def test_byzantine_outputs_rejected_by_quorum(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=3))
        cloud.add_volunteers(6, mr=True)
        cloud.add_volunteers(2, mr=True, byzantine_rate=1.0)
        job = cloud.run_job(small_spec(), timeout=24 * 3600)
        assert job.phase is JobPhase.DONE
        # Corrupt hosts never appear as validated holders of map output.
        byz_names = {c.name for c in cloud.clients[6:]}
        for holders in job.map_tasks.values():
            assert not byz_names & set(holders)
        # And the validator created extra replicas to break ties.
        assert len(cloud.tracer.select("validator.inconclusive")) > 0 or \
            len(cloud.tracer.select("transitioner.new_result")) > 0

    def test_occasional_byzantine_still_completes(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=5))
        cloud.add_volunteers(8, mr=True, byzantine_rate=0.2)
        job = cloud.run_job(small_spec(), timeout=24 * 3600)
        assert job.phase is JobPhase.DONE


class TestPeerFailureFallback:
    def test_peer_failures_fall_back_to_server(self):
        cfg = BoincMRConfig(upload_map_outputs=True)
        cloud = mr_cloud(mr_config=cfg)
        cloud.apply_faults([FaultSpec(kind="peer_corrupt", at=0.0,
                                      duration=24 * 3600, target="all")])
        job = cloud.run_job(small_spec(), timeout=24 * 3600)
        assert job.phase is JobPhase.DONE
        fallbacks = sum(getattr(c.input_fetcher, "server_fallbacks", 0)
                        for c in cloud.clients)
        local = len(cloud.tracer.select("peer.local"))
        # Locally held partitions never hit the network; every other
        # partition failed peer-side and fell back to the server.
        assert fallbacks + local == SMALL["n_maps"] * SMALL["n_reducers"] * 2
        assert fallbacks > 0

    def test_no_fallback_available_fails_tasks_but_replicas_retry(self):
        # Pure hash-only mode with some corrupt peers: a reducer evicts a
        # poisoned copy and tries the partition's other holder, so the
        # job completes without any server copy to fall back to.
        cfg = BoincMRConfig(upload_map_outputs=False)
        cloud = mr_cloud(seed=11, mr_config=cfg)
        cloud.apply_faults([FaultSpec(kind="peer_corrupt", at=0.0,
                                      duration=48 * 3600, target="random:3")])
        job = cloud.run_job(small_spec(), timeout=48 * 3600)
        assert job.phase is JobPhase.DONE
        assert len(cloud.tracer.select("peer.corrupt")) > 0


class TestNatDeployment:
    def test_all_symmetric_nats_relay_through_server(self):
        nat = NatBox(nat_type=NatType.SYMMETRIC)
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=2))
        cloud.add_volunteers(8, mr=True, nat=nat)
        job = cloud.run_job(small_spec(), timeout=24 * 3600)
        assert job.phase is JobPhase.DONE
        counts = cloud.connectivity.method_counts()
        assert counts.get("relay", 0) > 0
        assert counts.get("direct", 0) == 0

    def test_public_hosts_connect_directly(self):
        cloud = mr_cloud()  # default: no NAT
        cloud.run_job(small_spec())
        counts = cloud.connectivity.method_counts()
        assert set(counts) == {"direct"}


class TestEarlyReduceCreation:
    def test_overlap_mode_completes_and_overlaps(self):
        cfg = BoincMRConfig(upload_map_outputs=True, reduce_from_peers=False,
                            reduce_creation_fraction=0.5)
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1, mr_config=cfg))
        cloud.add_volunteers(8, mr=False)
        job = cloud.run_job(small_spec(), timeout=24 * 3600)
        assert job.phase is JobPhase.DONE
        # Reduce WUs were created before the map phase finished.
        created, = cloud.tracer.select("jobtracker.reduce_created")
        last_map = max(r.time for r in cloud.tracer.select("jobtracker.map_done"))
        assert created.time < last_map

    def test_invalid_overlap_config_rejected(self):
        with pytest.raises(ValueError, match="upload_map_outputs"):
            BoincMRConfig(reduce_creation_fraction=0.5,
                          upload_map_outputs=False)


class TestScaleVariants:
    @pytest.mark.parametrize("n_nodes,n_maps,n_reducers", [
        (4, 4, 1), (6, 12, 3), (12, 6, 2),
    ])
    def test_geometries_complete(self, n_nodes, n_maps, n_reducers):
        cloud = mr_cloud(n=n_nodes)
        job = cloud.run_job(MapReduceJobSpec(
            "geom", n_maps=n_maps, n_reducers=n_reducers, input_size=30e6))
        assert job.phase is JobPhase.DONE

    def test_heterogeneous_speeds(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
        cloud.add_volunteers(4, mr=True, flops=1.0)
        cloud.add_volunteers(4, mr=True, flops=2.0)
        job = cloud.run_job(small_spec())
        assert job.phase is JobPhase.DONE

    def test_too_few_nodes_for_replication_rejected_by_scenario(self):
        from repro.experiments import run_scenario

        with pytest.raises(ValueError, match="replication"):
            run_scenario(CloudSpec(seed=1, n_nodes=1),
                         MapReduceJobSpec("x", n_maps=2, n_reducers=1))


class TestVolunteerNames:
    def test_auto_name_skips_explicitly_taken_names(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
        cloud.add_volunteer("host001")
        cloud.add_volunteer("host003")
        names = [c.name for c in cloud.add_volunteers(3)]
        assert names == ["host002", "host004", "host005"]
