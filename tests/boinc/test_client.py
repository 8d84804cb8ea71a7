"""Unit and integration tests for the BOINC client state machine."""

import numpy as np
import pytest

from repro.boinc import (
    Client,
    ClientConfig,
    FileRef,
    ProjectServer,
    ResultState,
    ServerConfig,
    TaskState,
    Workunit,
    WorkunitState,
    make_client,
)
from repro.net import EMULAB_LINK, Network, SERVER_LINK
from repro.sim import Simulator


def build(n_clients=2, client_config=None, server_config=None, flops=1.0,
          seed=0):
    sim = Simulator()
    net = Network(sim)
    server_host = net.add_host("server", SERVER_LINK)
    server = ProjectServer(sim, net, server_host,
                           config=server_config or ServerConfig())
    cfg = client_config or ClientConfig(initial_stagger_s=1.0,
                                        backoff_min_s=10.0,
                                        backoff_max_s=60.0,
                                        work_buffer_min_s=60.0,
                                        work_buffer_target_s=120.0)
    clients = [
        make_client(sim, net, server, f"c{i}", flops=flops, config=cfg,
                    rng=np.random.default_rng(seed + i))
        for i in range(n_clients)
    ]
    return sim, net, server, clients


def submit(server, n=1, flops=30.0, input_size=1e6, replication=2, quorum=2):
    wus = []
    for i in range(n):
        wu = Workunit(id=server.db.new_wu_id(), app_name="app",
                      input_files=(FileRef(f"in{i}", input_size),),
                      flops=flops, target_nresults=replication,
                      min_quorum=quorum)
        wus.append(server.submit_workunit(wu))
    return wus


def start_all(server, clients):
    server.start_daemons()
    for c in clients:
        c.start()


class TestWorkFetchCycle:
    def test_client_fetches_computes_reports(self):
        sim, _net, server, clients = build(n_clients=2)
        wus = submit(server, n=1)
        start_all(server, clients)
        sim.run(until=300.0)
        wu = wus[0]
        assert wu.state is WorkunitState.ASSIMILATED
        results = server.db.results_for_wu(wu.id)
        assert all(r.reported_success for r in results)

    def test_single_client_cannot_complete_quorum_alone(self):
        sim, _net, server, clients = build(n_clients=1)
        wus = submit(server, n=1, replication=2, quorum=2)
        start_all(server, clients)
        sim.run(until=300.0)
        # One replica done, the other unassignable (one-per-host rule).
        assert wus[0].state is WorkunitState.ACTIVE
        states = [r.state for r in server.db.results_for_wu(wus[0].id)]
        assert ResultState.OVER in states
        assert ResultState.UNSENT in states

    def test_tasks_run_sequentially_on_one_cpu(self):
        sim, _net, server, clients = build(
            n_clients=1,
            client_config=ClientConfig(initial_stagger_s=0.0,
                                       work_buffer_target_s=1000,
                                       compute_jitter=0.0))
        submit(server, n=3, flops=50.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=400.0)
        starts = sorted(r.time for r in server.tracer.select(
            "task.compute_start", host="c0"))
        assert len(starts) == 3
        assert starts[1] - starts[0] == pytest.approx(50.0, rel=0.02)
        assert starts[2] - starts[1] == pytest.approx(50.0, rel=0.02)

    def test_multicore_runs_in_parallel(self):
        sim, _net, server, clients = build(
            n_clients=1,
            client_config=ClientConfig(ncpus=2, initial_stagger_s=0.0,
                                       work_buffer_target_s=1000,
                                       compute_jitter=0.0))
        submit(server, n=2, flops=50.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=300.0)
        starts = sorted(r.time for r in server.tracer.select(
            "task.compute_start", host="c0"))
        assert len(starts) == 2
        assert starts[1] - starts[0] < 1.0

    def test_compute_time_scales_with_flops(self):
        sim, _net, server, clients = build(
            n_clients=1, flops=2.0,
            client_config=ClientConfig(initial_stagger_s=0.0,
                                       compute_jitter=0.0))
        submit(server, n=1, flops=100.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=300.0)
        recs = server.tracer.select("task.compute_start", host="c0")
        assert recs[0]["runtime"] == pytest.approx(50.0)


class TestBackoff:
    def test_delay_sequence_is_pinned(self):
        """The one backoff formula, for n = 1..6 consecutive failures, on
        the client defaults (60 s doubling to 600 s; transfers 15 s to
        300 s; 50% jitter, one rng draw per delay).  Values recorded from
        the separate copies this function replaced: traces depend on them."""
        from repro.boinc.client import (
            TRANSFER_BACKOFF_MAX_S,
            TRANSFER_BACKOFF_MIN_S,
        )
        from repro.sim import backoff_delay

        cfg = ClientConfig()
        rng = np.random.default_rng(7)
        assert [backoff_delay(rng, cfg.backoff_min_s, cfg.backoff_max_s, n,
                              cfg.backoff_jitter)
                for n in range(1, 7)] == [
            67.50572799628002, 167.66565611634906, 306.16456565884647,
            348.0994511954841, 480.09977094673525, 824.1320672377572]
        rng = np.random.default_rng(7)
        assert [backoff_delay(rng, TRANSFER_BACKOFF_MIN_S,
                              TRANSFER_BACKOFF_MAX_S, n, cfg.backoff_jitter)
                for n in range(1, 7)] == [
            16.876431999070004, 41.916414029087264, 76.54114141471162,
            87.02486279887103, 192.0399083786941, 412.0660336188786]

    def test_live_retry_delay_is_the_same_formula(self):
        """The live clients' 503 retry: same function, live constants,
        any rng with ``uniform`` — and never under the server's floor."""
        import random

        from repro.gateway.client import retry_delay

        delays = [retry_delay(random.Random(3), attempt)
                  for attempt in range(8)]
        spans = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        assert all(0.5 * s <= d <= 1.5 * s for s, d in zip(spans, delays))
        assert retry_delay(random.Random(3), 0, retry_after_s=9.0) == 9.0

    def test_no_work_triggers_exponential_backoff(self):
        sim, _net, server, clients = build(n_clients=1)
        start_all(server, clients)  # no work submitted at all
        sim.run(until=500.0)
        backoffs = server.tracer.select("client.backoff", host="c0")
        assert len(backoffs) >= 3
        delays = [b["delay"] for b in backoffs]
        # Roughly doubling until the cap.
        assert delays[1] > delays[0]
        assert max(delays) <= 60.0 * 1.5 + 1e-9  # cap * (1 + jitter)

    def test_backoff_resets_after_work(self):
        sim, _net, server, clients = build(n_clients=2)
        start_all(server, clients)
        sim.run(until=200.0)  # accumulate backoff
        assert clients[0]._backoff_count >= 3
        submit(server, n=4, flops=10.0)
        sim.run(until=400.0)
        # Getting work reset the sequence: the first no-work backoff *after*
        # receiving an assignment starts again near the minimum, not the cap.
        first_assign = server.tracer.first("sched.assign", host="c0")
        assert first_assign is not None
        post = [r["delay"] for r in server.tracer.select(
            "client.backoff", host="c0") if r.time > first_assign.time]
        assert post, "client never backed off after draining the new work"
        assert post[0] <= 10.0 * 1.5  # backoff_min * (1 + jitter)

    def test_report_waits_for_backoff_window(self):
        """The paper's Fig. 4 pathology: a finished task cannot be reported
        while the client sits in a backoff window."""
        cfg = ClientConfig(initial_stagger_s=0.0, backoff_min_s=100.0,
                           backoff_max_s=100.0, backoff_jitter=0.0,
                           compute_jitter=0.0)
        sim, _net, server, clients = build(n_clients=1, client_config=cfg)
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=600.0)
        tracer = server.tracer
        ready = tracer.first("task.ready", host="c0")
        report = tracer.first("sched.report", host="c0")
        assert ready is not None and report is not None
        # While computing (~30s) the client polled for more work, got
        # nothing, and entered a 100s backoff; the report had to wait.
        gap = report.time - ready.time
        assert gap > 30.0

    def test_report_immediately_skips_backoff(self):
        cfg = ClientConfig(initial_stagger_s=0.0, backoff_min_s=100.0,
                           backoff_max_s=100.0, backoff_jitter=0.0,
                           compute_jitter=0.0, report_immediately=True)
        sim, _net, server, clients = build(n_clients=1, client_config=cfg)
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=600.0)
        tracer = server.tracer
        ready = tracer.first("task.ready", host="c0")
        report = tracer.first("sched.report", host="c0")
        gap = report.time - ready.time
        assert gap < 5.0


class TestUploadVsReport:
    def test_upload_precedes_report(self):
        """Outputs are uploaded as soon as ready; the report waits for the
        next scheduler RPC (Section IV.B)."""
        cfg = ClientConfig(initial_stagger_s=0.0, backoff_min_s=50.0,
                           backoff_max_s=50.0, backoff_jitter=0.0)
        sim, _net, server, clients = build(n_clients=1, client_config=cfg)
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=400.0)
        res = server.db.results_for_wu(1)[0]
        assert res.received_at is not None
        assert res.reported_at is not None
        assert res.received_at <= res.reported_at


class TestShutdown:
    def test_shutdown_stops_rpc_activity(self):
        sim, _net, server, clients = build(n_clients=1)
        start_all(server, clients)
        sim.run(until=50.0)
        clients[0].go_offline()
        rpcs_at_shutdown = clients[0].rpcs
        sim.run(until=500.0)
        assert clients[0].rpcs == rpcs_at_shutdown
        assert clients[0].offline and not clients[0].host.online

    def test_shutdown_fails_running_task(self):
        sim, _net, server, clients = build(
            n_clients=1,
            client_config=ClientConfig(initial_stagger_s=0.0))
        submit(server, n=1, flops=1000.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=60.0)  # task is computing
        assert any(t.state == TaskState.COMPUTING for t in clients[0].tasks)
        clients[0].go_offline()
        sim.run(until=70.0)
        assert clients[0].tasks[0].state == TaskState.FAILED

    def test_come_online_resumes_and_reports_what_was_finished(self):
        """Client-side state survives the outage: a task finished but not
        yet reported when the host left is reported once it is back."""
        cfg = ClientConfig(initial_stagger_s=0.0, backoff_min_s=50.0,
                           backoff_max_s=50.0, backoff_jitter=0.0)
        sim, _net, server, clients = build(n_clients=1, client_config=cfg)
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, clients)
        client = clients[0]
        while server.tracer.first("task.ready", host=client.name) is None:
            sim.run(until=sim.now + 1.0)
        res = server.db.results_for_wu(1)[0]
        assert res.reported_at is None
        client.go_offline()
        sim.run(until=sim.now + 100.0)
        assert res.reported_at is None
        client.come_online()
        assert not client.offline and client.host.online
        sim.run(until=sim.now + 100.0)
        assert res.reported_at is not None

    def test_double_start_rejected(self):
        _sim, _net, _server, clients = build(n_clients=1)
        clients[0].start()
        with pytest.raises(RuntimeError):
            clients[0].start()
        with pytest.raises(RuntimeError):
            clients[0].come_online()  # it never left


class TestFailureRecovery:
    def test_failed_task_reported_and_replaced(self):
        class ExplodingExecutor:
            def execute(self, client, task):
                raise RuntimeError("segfault")

        sim = Simulator()
        net = Network(sim)
        server_host = net.add_host("server", SERVER_LINK)
        server = ProjectServer(sim, net, server_host)
        cfg = ClientConfig(initial_stagger_s=0.0, backoff_min_s=5.0,
                           backoff_max_s=20.0)
        bad = make_client(sim, net, server, "bad", config=cfg,
                          rng=np.random.default_rng(0),
                          executor=ExplodingExecutor())
        good1 = make_client(sim, net, server, "good1", config=cfg,
                            rng=np.random.default_rng(1))
        good2 = make_client(sim, net, server, "good2", config=cfg,
                            rng=np.random.default_rng(2))
        wu = Workunit(id=server.db.new_wu_id(), app_name="app",
                      input_files=(FileRef("in", 1e6),), flops=30.0,
                      target_nresults=3, min_quorum=2)
        server.submit_workunit(wu)
        server.start_daemons()
        for c in (bad, good1, good2):
            c.start()
        sim.run(until=600.0)
        assert wu.state is WorkunitState.ASSIMILATED
        failed = server.tracer.select("task.failed", host="bad")
        assert failed and "segfault" in failed[0]["error"]
