"""Tests for the future-work extensions: supernode overlay, TCP-Nice
uploads, MapReduce workflows, and adaptive replication."""

import pytest

from repro.boinc import ClientConfig, ProjectServer, ServerConfig
from repro.core import (
    BoincMRConfig,
    CloudSpec,
    JobPhase,
    MapReduceJobSpec,
    VolunteerCloud,
    WorkflowStage,
    pipeline,
)
from repro.core.costmodel import GREP, WORD_COUNT
from repro.net import (
    EMULAB_LINK,
    LinkSpec,
    NatBox,
    NatType,
    Network,
    NoSupernodeAvailable,
    SupernodeOverlay,
    elect_supernodes,
)
from repro.sim import Simulator

SYM = NatBox(nat_type=NatType.SYMMETRIC)


def hosts_with(sim=None, specs=()):
    net = Network(sim or Simulator())
    return [net.add_host(name, spec, nat=nat) for name, spec, nat in specs]


class TestSupernodeElection:
    def test_prefers_reachable_then_uplink(self):
        hosts = hosts_with(specs=[
            ("natted_fat", LinkSpec(100e6, 100e6), SYM),
            ("public_slow", LinkSpec(10e6, 1e6), None),
            ("public_fat", LinkSpec(100e6, 50e6), None),
        ])
        chosen = elect_supernodes(hosts, 2)
        assert [h.name for h in chosen] == ["public_fat", "public_slow"]

    def test_all_natted_raises(self):
        hosts = hosts_with(specs=[("a", EMULAB_LINK, SYM),
                                  ("b", EMULAB_LINK, SYM)])
        with pytest.raises(NoSupernodeAvailable):
            elect_supernodes(hosts, 1)

    def test_count_validation(self):
        hosts = hosts_with(specs=[("a", EMULAB_LINK, None)])
        with pytest.raises(ValueError):
            elect_supernodes(hosts, 0)

    def test_deterministic(self):
        specs = [(f"h{i}", EMULAB_LINK, None) for i in range(6)]
        a = [h.name for h in elect_supernodes(hosts_with(specs=specs), 3)]
        b = [h.name for h in elect_supernodes(hosts_with(specs=specs), 3)]
        assert a == b


class TestSupernodeOverlay:
    def make(self, n_public=4, n_natted=8):
        specs = [(f"pub{i}", EMULAB_LINK, None) for i in range(n_public)]
        specs += [(f"nat{i}", EMULAB_LINK, SYM) for i in range(n_natted)]
        hosts = hosts_with(specs=specs)
        return hosts, SupernodeOverlay(hosts, n_supernodes=3, fanout=2)

    def test_attachments_balanced(self):
        _hosts, overlay = self.make()
        counts = overlay.attachment_counts().values()
        assert max(counts) - min(counts) <= 1

    def test_every_node_attached(self):
        hosts, overlay = self.make()
        for h in hosts:
            assert len(overlay.supernodes_of(h)) >= 1

    def test_supernode_serves_itself(self):
        _hosts, overlay = self.make()
        sn = overlay.supernodes[0]
        assert overlay.supernodes_of(sn) == [sn]

    def test_pick_relay_prefers_shared_supernode(self):
        hosts, overlay = self.make()
        a, b = hosts[-1], hosts[-2]
        relay = overlay.pick_relay(a, b)
        assert relay in overlay.supernodes
        shared = ({s.name for s in overlay.supernodes_of(a)}
                  & {s.name for s in overlay.supernodes_of(b)})
        if shared:
            assert relay.name in shared

    def test_offline_supernodes_skipped(self):
        hosts, overlay = self.make()
        for sn in overlay.supernodes[:-1]:
            sn.online = False
        relay = overlay.pick_relay(hosts[-1], hosts[-2])
        assert relay is overlay.supernodes[-1]

    def test_all_supernodes_offline_raises(self):
        hosts, overlay = self.make()
        for sn in overlay.supernodes:
            sn.online = False
        with pytest.raises(NoSupernodeAvailable):
            overlay.pick_relay(hosts[-1], hosts[-2])

    def test_overlay_relays_mapreduce_job(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=2))
        cloud.add_volunteers(2, mr=True,
                             link_spec=LinkSpec(200e6, 200e6, 0.001))
        cloud.add_volunteers(8, mr=True, nat=SYM)
        overlay = cloud.enable_supernode_overlay(n_supernodes=2, fanout=1)
        job = cloud.run_job(MapReduceJobSpec(
            "sn", n_maps=6, n_reducers=2, input_size=60e6),
            timeout=24 * 3600)
        assert job.phase is JobPhase.DONE
        assert cloud.connectivity.method_counts().get("relay", 0) > 0
        assert {h.name for h in overlay.supernodes} == {"host000", "host001"}


class TestNiceUploads:
    def test_background_upload_yields_to_foreground(self):
        from repro.boinc.dataserver import DataServer
        from repro.boinc.model import FileRef

        sim = Simulator()
        net = Network(sim)
        server = net.add_host("server", EMULAB_LINK)
        a = net.add_host("a", EMULAB_LINK)   # a mapper
        b = net.add_host("b", EMULAB_LINK)   # a reducer fetching from it
        ds = DataServer(sim, net, server)
        # The mapper's uplink carries both its server upload (background)
        # and the inter-client transfer a reducer depends on (foreground).
        bg_flow = ds.upload(FileRef("bg", 12.5e6), a, background=True)
        fg_flow = net.transfer(a, b, 12.5e6)
        # The peer transfer gets the whole uplink, nice yields entirely...
        assert fg_flow.rate == pytest.approx(12.5e6)
        assert bg_flow.rate == pytest.approx(0.0, abs=1.0)
        sim.run(until_event=fg_flow.done)
        assert sim.now == pytest.approx(1.0)
        # ...then the nice upload takes the freed capacity.
        sim.run(until_event=bg_flow.done)
        assert sim.now == pytest.approx(2.0, rel=0.05)

    def test_nice_uploads_dont_break_job(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=1,
            mr_config=BoincMRConfig(upload_map_outputs=True,
                                    reduce_from_peers=False),
            client_config=ClientConfig(nice_uploads=True)))
        cloud.add_volunteers(8, mr=False)
        job = cloud.run_job(MapReduceJobSpec(
            "nice", n_maps=6, n_reducers=2, input_size=60e6),
            timeout=24 * 3600)
        assert job.phase is JobPhase.DONE


class TestWorkflows:
    def cloud(self, seed=4):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=seed))
        cloud.add_volunteers(10, mr=True)
        return cloud

    def test_two_stage_pipeline(self):
        wf = pipeline(self.cloud(), "etl", 100e6,
                      WorkflowStage("grep", n_maps=8, n_reducers=2, cost=GREP),
                      WorkflowStage("count", n_maps=4, n_reducers=2,
                                    cost=WORD_COUNT))
        jobs = wf.run()
        assert [j.spec.name for j in jobs] == ["etl.grep", "etl.count"]
        assert all(j.phase is JobPhase.DONE for j in jobs)
        assert wf.makespan() >= sum(wf.stage_makespans()) - 1e-6

    def test_stage_input_derived_from_previous_output(self):
        wf = pipeline(self.cloud(), "flow", 100e6,
                      WorkflowStage("a", n_maps=4, n_reducers=2),
                      WorkflowStage("b", n_maps=4, n_reducers=1))
        jobs = wf.run()
        stage_a = jobs[0].spec
        expected = stage_a.reduce_output_size() * stage_a.n_reducers
        assert jobs[1].spec.input_size == pytest.approx(expected)

    def test_stages_run_sequentially(self):
        wf = pipeline(self.cloud(), "seq", 60e6,
                      WorkflowStage("one", n_maps=4, n_reducers=2),
                      WorkflowStage("two", n_maps=4, n_reducers=2))
        jobs = wf.run()
        assert jobs[1].submitted_at >= jobs[0].finished_at

    def test_validation(self):
        cloud = self.cloud()
        with pytest.raises(ValueError):
            pipeline(cloud, "w", 1e6)  # no stages
        with pytest.raises(ValueError):
            pipeline(cloud, "w", 0,
                     WorkflowStage("a", n_maps=1, n_reducers=1))
        with pytest.raises(ValueError):
            pipeline(cloud, "w", 1e6,
                     WorkflowStage("dup", n_maps=1, n_reducers=1),
                     WorkflowStage("dup", n_maps=1, n_reducers=1))

    def test_double_start_rejected(self):
        wf = pipeline(self.cloud(), "once", 60e6,
                      WorkflowStage("a", n_maps=4, n_reducers=2))
        wf.start()
        with pytest.raises(RuntimeError):
            wf.start()


class TestAdaptiveReplication:
    def cloud(self, adaptive=True, byz=0.0, seed=5):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            seed=seed, server_config=ServerConfig(
                adaptive_replication=adaptive, adaptive_trust_threshold=2,
                adaptive_spot_check_rate=0.1)))
        cloud.add_volunteers(12, mr=True, byzantine_rate=byz)
        return cloud

    def run_two_jobs(self, cloud):
        cloud.run_job(MapReduceJobSpec("warm", n_maps=12, n_reducers=3,
                                       input_size=120e6), timeout=48 * 3600)
        job = cloud.run_job(MapReduceJobSpec("main", n_maps=12, n_reducers=3,
                                             input_size=120e6),
                            timeout=48 * 3600)
        executed = len([r for r in cloud.server.db.results.values()
                        if r.reported_at is not None])
        return job, executed

    def test_cold_start_escalates_everything(self):
        cloud = self.cloud()
        cloud.run_job(MapReduceJobSpec("warm", n_maps=6, n_reducers=2,
                                       input_size=60e6), timeout=48 * 3600)
        accepts = cloud.tracer.select("validator.adaptive_accept")
        escalations = cloud.tracer.select("validator.adaptive_escalate")
        assert len(escalations) >= 6  # nobody trusted yet
        assert len(accepts) <= 2

    def test_warm_reputation_accepts_singles(self):
        cloud = self.cloud()
        _job, _executed = self.run_two_jobs(cloud)
        accepts = [r for r in cloud.tracer.select("validator.adaptive_accept")]
        assert len(accepts) >= 3
        for rec in accepts:
            assert rec["reputation"] >= 2

    def test_adaptive_saves_executed_work(self):
        _job_a, executed_adaptive = self.run_two_jobs(self.cloud(adaptive=True))
        _job_f, executed_fixed = self.run_two_jobs(self.cloud(adaptive=False))
        assert executed_adaptive < executed_fixed

    def test_jobs_still_complete_with_byzantine_minority(self):
        cloud = self.cloud(byz=0.0, seed=7)
        cloud.clients[0].executor.byzantine_rate = 1.0
        job, _ = self.run_two_jobs(cloud)
        assert job.phase is JobPhase.DONE

    def test_unsent_replicas_cancelled_after_validation(self):
        # Plain (non-adaptive) server: validation cancels unsent spares.
        from repro.boinc.model import FileRef, OutputData, ResultState, Workunit
        from repro.boinc import ReportedResult, SchedulerRequest

        sim = Simulator()
        net = Network(sim)
        server = ProjectServer(sim, net, net.add_host("s", EMULAB_LINK))
        wu = server.submit_workunit(Workunit(
            id=server.db.new_wu_id(), app_name="a",
            input_files=(FileRef("in", 1.0),), flops=1.0,
            target_nresults=3, min_quorum=2))
        server._feeder_pass()
        for i in range(2):
            host = server.register_host(f"h{i}", 1.0)
            proc = server.scheduler_rpc(SchedulerRequest(
                host_id=host.id, work_req_s=10.0))
            sim.run(until_event=proc)
            rid = proc.value.assignments[0].result_id
            proc = server.scheduler_rpc(SchedulerRequest(
                host_id=host.id, work_req_s=0.0,
                reports=[ReportedResult(rid, True, OutputData("d"), 1.0)]))
            sim.run(until_event=proc)
        server._transitioner_pass()
        server._validator_pass()
        states = [r.state for r in server.db.results_for_wu(wu.id)]
        assert states.count(ResultState.UNSENT) == 0  # third replica pulled
