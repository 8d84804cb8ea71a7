"""Additional client/server protocol tests: congestion, pacing, speed."""

import numpy as np
import pytest

from repro.boinc import (
    ClientConfig,
    FileRef,
    ProjectServer,
    SchedulerRequest,
    ServerConfig,
    Workunit,
    make_client,
)
from repro.net import Network, SERVER_LINK
from repro.sim import Simulator


def build(n_clients, client_config=None, server_config=None):
    sim = Simulator()
    net = Network(sim)
    server_host = net.add_host("server", SERVER_LINK)
    server = ProjectServer(sim, net, server_host,
                           config=server_config or ServerConfig())
    cfg = client_config or ClientConfig()
    clients = [make_client(sim, net, server, f"c{i}", config=cfg,
                           rng=np.random.default_rng(i))
               for i in range(n_clients)]
    return sim, net, server, clients


def submit(server, n=1, flops=30.0, replication=1, quorum=1):
    for i in range(n):
        server.submit_workunit(Workunit(
            id=server.db.new_wu_id(), app_name="app",
            input_files=(FileRef(f"in{i}", 1e5),), flops=flops,
            target_nresults=replication, min_quorum=quorum))


class TestRpcCongestion:
    def test_rpc_capacity_queues_excess_requests(self):
        sim, _net, server, _clients = build(
            0, server_config=ServerConfig(rpc_capacity=2, rpc_process_s=10.0))
        hosts = [server.register_host(f"h{i}", 1.0) for i in range(6)]
        procs = [server.scheduler_rpc(SchedulerRequest(
            host_id=h.id, work_req_s=0.0)) for h in hosts]
        sim.run()
        # 6 RPCs, 2 at a time, 10s each -> three waves; last ends at t=30.
        assert all(p.ok for p in procs)
        assert sim.now == pytest.approx(30.0)

    def test_all_rpcs_eventually_served(self):
        sim, _net, server, _clients = build(
            0, server_config=ServerConfig(rpc_capacity=1, rpc_process_s=1.0))
        hosts = [server.register_host(f"h{i}", 1.0) for i in range(5)]
        procs = [server.scheduler_rpc(SchedulerRequest(
            host_id=h.id, work_req_s=0.0)) for h in hosts]
        sim.run()
        assert all(p.ok for p in procs)
        assert sim.now == pytest.approx(5.0)


class TestPacing:
    def test_request_delay_limits_rpc_rate(self):
        cfg = ClientConfig(initial_stagger_s=0.0, backoff_min_s=1e9,
                           backoff_max_s=1e9)
        sim, _net, server, clients = build(
            1, client_config=cfg,
            server_config=ServerConfig(request_delay_s=30.0,
                                       rpc_process_s=0.1))
        submit(server, n=50, flops=5.0)
        server.start_daemons()
        clients[0].start()
        sim.run(until=300.0)
        rpcs = server.tracer.times("sched.rpc", host="c0")
        gaps = [b - a for a, b in zip(rpcs, rpcs[1:])]
        assert gaps and min(gaps) >= 30.0 - 1e-6

    def test_initial_stagger_bounds(self):
        cfg = ClientConfig(initial_stagger_s=20.0)
        sim, _net, server, clients = build(8, client_config=cfg)
        server.start_daemons()
        for c in clients:
            c.start()
        sim.run(until=60.0)
        firsts = [server.tracer.first("sched.rpc", host=c.name).time
                  for c in clients]
        assert all(t <= 20.0 + 2.0 for t in firsts)
        assert max(firsts) - min(firsts) > 1.0  # actually staggered


class TestSpeedFactor:
    def test_speed_factor_slows_compute_only(self):
        cfg = ClientConfig(initial_stagger_s=0.0, compute_jitter=0.0,
                           speed_factor=0.5)
        sim, _net, server, clients = build(1, client_config=cfg)
        submit(server, n=1, flops=40.0)
        server.start_daemons()
        clients[0].start()
        sim.run(until=300.0)
        rec = server.tracer.first("task.compute_start", host="c0")
        assert rec["runtime"] == pytest.approx(80.0)
        # The server's estimate was still 40s.
        assigns = server.tracer.first("sched.assign", host="c0")
        assert assigns is not None


class TestWorkRequestAccounting:
    def test_work_request_shrinks_with_queued_work(self):
        cfg = ClientConfig(initial_stagger_s=0.0, work_buffer_min_s=1000.0,
                           work_buffer_target_s=1000.0, compute_jitter=0.0)
        sim, _net, server, clients = build(
            1, client_config=cfg,
            server_config=ServerConfig(max_results_per_rpc=2,
                                       request_delay_s=1.0))
        submit(server, n=10, flops=100.0)
        server.start_daemons()
        clients[0].start()
        sim.run(until=30.0)
        reqs = [r["work_req"] for r in server.tracer.select(
            "sched.rpc", host="c0")]
        assert reqs[0] == pytest.approx(1000.0)
        # After receiving ~200s of work the next request is ~200s smaller.
        assert any(r < 900.0 for r in reqs[1:])
