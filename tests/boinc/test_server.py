"""Unit tests for the project server: scheduler, daemons, validation."""

import pytest

from repro.boinc import (
    FileRef,
    OutputData,
    ProjectServer,
    ReportedResult,
    ResultOutcome,
    ResultState,
    SchedulerRequest,
    ServerConfig,
    ValidateState,
    Workunit,
    WorkunitState,
)
from repro.boinc import server as server_mod
from repro.net import Network, SERVER_LINK
from repro.obs import MetricsRegistry
from repro.sim import RngRegistry, Simulator, Tracer


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def server(sim):
    net = Network(sim, MetricsRegistry())
    host = net.add_host("server", SERVER_LINK)
    return ProjectServer(sim, net, host, Tracer(), MetricsRegistry(),
                         RngRegistry(0).stream("server"),
                         config=ServerConfig())


def make_wu(server, replication=2, quorum=2, **kwargs):
    defaults = dict(app_name="app", input_files=(FileRef("in", 100.0),),
                    flops=10.0, target_nresults=replication, min_quorum=quorum)
    defaults.update(kwargs)
    return server.submit_workunit(
        Workunit(id=server.db.new_wu_id(), **defaults))


def rpc(sim, server, host, work_req=600.0, reports=()):
    """Run one scheduler RPC synchronously and return the reply."""
    proc = server.scheduler_rpc(SchedulerRequest(
        host_id=host.id, work_req_s=work_req, reports=list(reports)))
    sim.run(until_event=proc)
    return proc.value


def feed(server):
    server._feeder_pass()


class TestSubmission:
    def test_submit_creates_replicas(self, server):
        wu = make_wu(server, replication=3, quorum=2)
        assert len(server.db.results_for_wu(wu.id)) == 3

    def test_inputs_published(self, server):
        make_wu(server)
        assert server.dataserver.has("in")

    def test_publish_can_be_suppressed(self, sim, server):
        wu = Workunit(id=server.db.new_wu_id(), app_name="a",
                      input_files=(FileRef("x", 10),), flops=1.0)
        server.submit_workunit(wu, publish_inputs=False)
        assert not server.dataserver.has("x")


class TestScheduler:
    def test_assigns_after_feeder_pass(self, sim, server):
        make_wu(server)
        host = server.register_host("h1", 1.0)
        feed(server)
        reply = rpc(sim, server, host)
        assert len(reply.assignments) == 1
        assert not reply.no_work

    def test_nothing_visible_before_feeder(self, sim, server):
        make_wu(server)
        host = server.register_host("h1", 1.0)
        reply = rpc(sim, server, host)
        assert reply.assignments == []
        assert reply.no_work

    def test_one_replica_per_host(self, sim, server):
        make_wu(server, replication=2)
        host = server.register_host("h1", 1.0)
        feed(server)
        first = rpc(sim, server, host)
        assert len(first.assignments) == 1
        second = rpc(sim, server, host)
        assert second.assignments == []  # the other replica is off-limits

    def test_lone_host_retries_its_own_failed_result(self, sim, server):
        """Nothing to cross-check at quorum 1: a failed or timed-out result
        goes back to the same host instead of waiting forever for another
        one (it used to answer no_work for good)."""
        wu = make_wu(server, replication=1, quorum=1)
        host = server.register_host("h1", 1.0)
        feed(server)
        first = rpc(sim, server, host).assignments[0]
        rpc(sim, server, host, work_req=0,
            reports=[ReportedResult(first.result_id, False, None, 0.0)])
        for _ in range(2):
            server.run_daemon_passes()
        retry = rpc(sim, server, host)
        assert [a.wu.id for a in retry.assignments] == [wu.id]
        assert retry.assignments[0].result_id != first.result_id
        # ... and again after that one times out.
        sim.run(until=sim.now + server.config.delay_bound_s + 10)
        for _ in range(2):
            server.run_daemon_passes()
        assert len(rpc(sim, server, host).assignments) == 1

    def test_in_progress_replica_still_bars_a_quorum_one_host(self, sim,
                                                              server):
        make_wu(server, replication=2, quorum=1)
        host = server.register_host("h1", 1.0)
        feed(server)
        assert len(rpc(sim, server, host, work_req=1e9).assignments) == 1
        assert rpc(sim, server, host).assignments == []

    def test_redundant_wu_never_returns_to_a_host_that_held_it(self, sim,
                                                               server):
        # Quorum validation needs distinct hosts: the rule is unchanged.
        make_wu(server, replication=2, quorum=2)
        host = server.register_host("h1", 1.0)
        feed(server)
        first = rpc(sim, server, host).assignments[0]
        rpc(sim, server, host, work_req=0,
            reports=[ReportedResult(first.result_id, False, None, 0.0)])
        for _ in range(2):
            server.run_daemon_passes()
        reply = rpc(sim, server, host)
        assert reply.assignments == [] and reply.no_work

    def test_two_hosts_get_different_replicas(self, sim, server):
        wu = make_wu(server, replication=2)
        h1 = server.register_host("h1", 1.0)
        h2 = server.register_host("h2", 1.0)
        feed(server)
        a1 = rpc(sim, server, h1)
        a2 = rpc(sim, server, h2)
        assert a1.assignments[0].result_id != a2.assignments[0].result_id
        assert {r.host_id for r in server.db.results_for_wu(wu.id)} == {h1.id, h2.id}

    def test_work_request_size_limits_assignments(self, sim, server):
        for _ in range(5):
            make_wu(server, replication=2, flops=100.0)
        host = server.register_host("h1", 1.0)
        feed(server)
        reply = rpc(sim, server, host, work_req=150.0)
        # First WU books 100s >= nothing, second pushes over 150.
        assert len(reply.assignments) == 2

    def test_max_results_per_rpc(self, sim, pin):
        pin(server_mod, MAX_RESULTS_PER_RPC=3)
        net = Network(sim, MetricsRegistry())
        host_net = net.add_host("server", SERVER_LINK)
        server = ProjectServer(sim, net, host_net, Tracer(),
                               MetricsRegistry(),
                               RngRegistry(0).stream("server"))
        for _ in range(10):
            make_wu(server, flops=1.0)
        host = server.register_host("h1", 1.0)
        feed(server)
        reply = rpc(sim, server, host, work_req=1e9)
        assert len(reply.assignments) == 3

    def test_est_runtime_scales_with_host_speed(self, sim, server):
        make_wu(server, flops=100.0)
        fast = server.register_host("fast", 4.0)
        feed(server)
        reply = rpc(sim, server, fast)
        assert reply.assignments[0].est_runtime_s == pytest.approx(25.0)

    def test_zero_work_request_reports_only(self, sim, server):
        make_wu(server)
        host = server.register_host("h1", 1.0)
        feed(server)
        reply = rpc(sim, server, host, work_req=0.0)
        assert reply.assignments == []
        assert not reply.no_work  # we didn't ask

    def test_rpc_counts_tracked(self, sim, server):
        host = server.register_host("h1", 1.0)
        rpc(sim, server, host)
        rpc(sim, server, host)
        assert len(server.tracer.select("sched.rpc", host="h1")) == 2


class TestReporting:
    def assign_one(self, sim, server, host):
        feed(server)
        reply = rpc(sim, server, host)
        return reply.assignments[0]

    def test_successful_report(self, sim, server):
        make_wu(server)
        host = server.register_host("h1", 1.0)
        a = self.assign_one(sim, server, host)
        out = OutputData(digest="d1")
        rpc(sim, server, host, work_req=0,
            reports=[ReportedResult(a.result_id, True, out, 10.0)])
        res = server.db.results[a.result_id]
        assert res.state is ResultState.OVER
        assert res.outcome is ResultOutcome.SUCCESS
        assert res.output.digest == "d1"
        assert res.reported_at is not None

    def test_error_report(self, sim, server):
        make_wu(server)
        host = server.register_host("h1", 1.0)
        a = self.assign_one(sim, server, host)
        rpc(sim, server, host, work_req=0,
            reports=[ReportedResult(a.result_id, False, None, 0.0)])
        res = server.db.results[a.result_id]
        assert res.outcome is ResultOutcome.CLIENT_ERROR

    def test_report_of_another_hosts_result_is_refused(self, sim, server):
        make_wu(server)
        holder = server.register_host("a", 1.0)
        other = server.register_host("b", 1.0)
        a = self.assign_one(sim, server, holder)
        reply = rpc(sim, server, other, work_req=0,
                    reports=[ReportedResult(a.result_id, True,
                                            OutputData("forged"), 1.0)])
        res = server.db.results[a.result_id]
        assert res.state is ResultState.IN_PROGRESS and res.output is None
        assert reply.refused_reports == 1
        rpc(sim, server, holder, work_req=0,
            reports=[ReportedResult(a.result_id, True, OutputData("d1"), 1.0)])
        assert res.state is ResultState.OVER and res.output.digest == "d1"

    def test_report_unknown_result_ignored(self, sim, server):
        host = server.register_host("h1", 1.0)
        rpc(sim, server, host, work_req=0,
            reports=[ReportedResult(9999, True, OutputData("d"), 1.0)])
        # no crash, nothing recorded

    def test_record_upload_sets_received_at(self, sim, server):
        make_wu(server)
        host = server.register_host("h1", 1.0)
        a = self.assign_one(sim, server, host)
        server.record_upload(a.result_id)
        res = server.db.results[a.result_id]
        assert res.received_at == sim.now
        assert res.reported_at is None  # upload is not a report


class TestTransitioner:
    def test_quorum_flagging(self, sim, server):
        wu = make_wu(server, replication=2, quorum=2)
        h1, h2 = (server.register_host(n, 1.0) for n in ("h1", "h2"))
        feed(server)
        a1 = rpc(sim, server, h1).assignments[0]
        a2 = rpc(sim, server, h2).assignments[0]
        for host, a in ((h1, a1), (h2, a2)):
            rpc(sim, server, host, work_req=0,
                reports=[ReportedResult(a.result_id, True, OutputData("d"), 1.0)])
        server._transitioner_pass()
        assert wu.need_validate

    def test_error_spawns_replacement(self, sim, server):
        wu = make_wu(server, replication=2, quorum=2)
        h1 = server.register_host("h1", 1.0)
        feed(server)
        a1 = rpc(sim, server, h1).assignments[0]
        rpc(sim, server, h1, work_req=0,
            reports=[ReportedResult(a1.result_id, False, None, 0.0)])
        server._transitioner_pass()
        results = server.db.results_for_wu(wu.id)
        assert len(results) == 3  # 2 original + 1 replacement
        assert sum(1 for r in results if r.state is ResultState.UNSENT) == 2

    def test_deadline_timeout_marks_no_reply(self, sim, server):
        wu = make_wu(server)
        h1 = server.register_host("h1", 1.0)
        feed(server)
        a1 = rpc(sim, server, h1).assignments[0]
        sim.run(until=server.config.delay_bound_s + 10)
        server._transitioner_pass()
        res = server.db.results[a1.result_id]
        assert res.outcome is ResultOutcome.NO_REPLY
        # and a replacement exists
        assert len(server.db.results_for_wu(wu.id)) == 3

    def test_too_many_errors_kills_wu(self, sim, server):
        wu = make_wu(server, replication=2, quorum=2)
        wu.max_error_results = 2
        errors = []
        server.on_wu_error = errors.append
        hosts = [server.register_host(f"h{i}", 1.0) for i in range(4)]
        for host in hosts[:2]:
            feed(server)
            reply = rpc(sim, server, host)
            if reply.assignments:
                rpc(sim, server, host, work_req=0, reports=[
                    ReportedResult(reply.assignments[0].result_id, False,
                                   None, 0.0)])
        server._transitioner_pass()
        assert wu.state is WorkunitState.ERROR
        assert errors == [wu]


class TestValidator:
    def run_replicas(self, sim, server, wu, digests):
        """Assign and report one replica per digest; returns results."""
        out = []
        for i, digest in enumerate(digests):
            host = server.register_host(f"v{i}", 1.0)
            feed(server)
            reply = rpc(sim, server, host)
            assert reply.assignments, f"no assignment for replica {i}"
            a = reply.assignments[0]
            rpc(sim, server, host, work_req=0, reports=[
                ReportedResult(a.result_id, True, OutputData(digest), 1.0)])
            out.append(server.db.results[a.result_id])
        server._transitioner_pass()
        server._validator_pass()
        return out

    def test_matching_pair_validates(self, sim, server):
        wu = make_wu(server, replication=2, quorum=2)
        r1, r2 = self.run_replicas(sim, server, wu, ["d", "d"])
        assert wu.state is WorkunitState.VALIDATED
        assert wu.canonical_result_id == min(r1.id, r2.id)
        assert r1.validate_state is ValidateState.VALID
        assert r2.validate_state is ValidateState.VALID

    def test_mismatch_spawns_tiebreaker(self, sim, server):
        wu = make_wu(server, replication=2, quorum=2)
        self.run_replicas(sim, server, wu, ["a", "b"])
        assert wu.state is WorkunitState.ACTIVE
        assert wu.target_nresults == 3  # validator asked for one more
        server._transitioner_pass()
        assert len(server.db.results_for_wu(wu.id)) == 3

    def test_tiebreaker_resolves_majority(self, sim, server):
        wu = make_wu(server, replication=2, quorum=2)
        self.run_replicas(sim, server, wu, ["good", "bad"])
        server._transitioner_pass()
        # third replica agrees with "good"
        host = server.register_host("v2", 1.0)
        feed(server)
        a = rpc(sim, server, host).assignments[0]
        rpc(sim, server, host, work_req=0, reports=[
            ReportedResult(a.result_id, True, OutputData("good"), 1.0)])
        server._transitioner_pass()
        server._validator_pass()
        assert wu.state is WorkunitState.VALIDATED
        states = {r.output.digest: r.validate_state
                  for r in server.db.results_for_wu(wu.id) if r.output}
        assert states["good"] is ValidateState.VALID
        assert states["bad"] is ValidateState.INVALID

    def test_quorum_of_one(self, sim, server):
        wu = make_wu(server, replication=1, quorum=1)
        self.run_replicas(sim, server, wu, ["only"])
        assert wu.state is WorkunitState.VALIDATED


class TestAssimilator:
    def test_handler_called_once_with_canonical(self, sim, server):
        seen = []
        server.assimilate_handler = lambda wu, res: seen.append((wu.id, res.id))
        wu = make_wu(server, replication=2, quorum=2)
        validator = TestValidator()
        validator.run_replicas(sim, server, wu, ["d", "d"])
        server._assimilator_pass()
        server._assimilator_pass()  # idempotent
        assert len(seen) == 1
        assert seen[0][0] == wu.id
        assert wu.state is WorkunitState.ASSIMILATED

    def test_valid_hosts_for_wu(self, sim, server):
        wu = make_wu(server, replication=2, quorum=2)
        validator = TestValidator()
        validator.run_replicas(sim, server, wu, ["d", "d"])
        hosts = server.valid_hosts_for_wu(wu.id)
        assert {h.name for h in hosts} == {"v0", "v1"}


class TestDaemonsEndToEnd:
    def test_daemon_loop_drives_wu_to_assimilation(self, sim, server):
        seen = []
        server.assimilate_handler = lambda wu, res: seen.append(wu.id)
        wu = make_wu(server, replication=2, quorum=2)
        server.start_daemons()
        h1 = server.register_host("h1", 1.0)
        h2 = server.register_host("h2", 1.0)
        sim.run(until=6.0)  # let the feeder pass
        for host in (h1, h2):
            reply = rpc(sim, server, host)
            a = reply.assignments[0]
            rpc(sim, server, host, work_req=0, reports=[
                ReportedResult(a.result_id, True, OutputData("d"), 1.0)])
        sim.run(until=60.0)
        assert seen == [wu.id]

    def test_double_start_rejected(self, server):
        server.start_daemons()
        with pytest.raises(RuntimeError):
            server.start_daemons()
