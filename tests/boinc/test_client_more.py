"""Additional client/server protocol tests: congestion, pacing, speed."""

import copy

import pytest

from repro.boinc import (
    Client,
    ClientConfig,
    FileRef,
    ProjectServer,
    SchedulerRequest,
    ServerConfig,
    Workunit,
)
from repro.boinc import client as client_mod
from repro.boinc import server as server_mod
from repro.net import EMULAB_LINK, Network, SERVER_LINK
from repro.obs import MetricsRegistry
from repro.sim import RngRegistry, Simulator, Tracer, jittered

from .fakes import DigestExecutor, plain_boinc


def build(n_clients, client_config=None, server_config=None):
    sim = Simulator()
    net = Network(sim, MetricsRegistry())
    server_host = net.add_host("server", SERVER_LINK)
    rngs = RngRegistry(0)
    server = ProjectServer(sim, net, server_host, Tracer(), MetricsRegistry(),
                           rngs.stream("server"),
                           config=server_config or ServerConfig())
    cfg = client_config or ClientConfig()
    clients = []
    for i in range(n_clients):
        host = net.add_host(f"c{i}", EMULAB_LINK)
        record = server.register_host(f"c{i}", 1.0)
        clients.append(Client(sim, net, server, host, record, config=cfg,
                              rng=rngs.stream(f"client.c{i}"),
                              **plain_boinc(DigestExecutor())))
    return sim, net, server, clients


def submit(server, n=1, flops=30.0, replication=1, quorum=1):
    for i in range(n):
        server.submit_workunit(Workunit(
            id=server.db.new_wu_id(), app_name="app",
            input_files=(FileRef(f"in{i}", 1e5),), flops=flops,
            target_nresults=replication, min_quorum=quorum))


def last_served(rng, n, capacity):
    """When the last of *n* RPCs queued at t=0 finishes: each of
    *capacity* slots takes the next request as it frees, and each service
    time is ``RPC_PROCESS_S`` with the server's +-20% jitter, drawn from
    *rng* in the order the slots take the requests."""
    free = [0.0] * capacity
    for _ in range(n):
        slot = free.index(min(free))
        free[slot] += jittered(rng, server_mod.RPC_PROCESS_S, 0.2)
    return max(free)


class TestRpcCongestion:
    def test_rpc_capacity_queues_excess_requests(self, pin):
        pin(server_mod, RPC_CAPACITY=2, RPC_PROCESS_S=10.0)
        sim, _net, server, _clients = build(0)
        twin = copy.deepcopy(server.rng)
        hosts = [server.register_host(f"h{i}", 1.0) for i in range(6)]
        procs = [server.scheduler_rpc(SchedulerRequest(
            host_id=h.id, work_req_s=0.0)) for h in hosts]
        sim.run()
        # 6 RPCs, 2 at a time, ~10s each -> three waves.
        assert all(p.triggered and p.exception is None for p in procs)
        assert sim.now == pytest.approx(last_served(twin, 6, 2))

    def test_all_rpcs_eventually_served(self, pin):
        pin(server_mod, RPC_CAPACITY=1, RPC_PROCESS_S=1.0)
        sim, _net, server, _clients = build(0)
        twin = copy.deepcopy(server.rng)
        hosts = [server.register_host(f"h{i}", 1.0) for i in range(5)]
        procs = [server.scheduler_rpc(SchedulerRequest(
            host_id=h.id, work_req_s=0.0)) for h in hosts]
        sim.run()
        assert all(p.triggered and p.exception is None for p in procs)
        assert sim.now == pytest.approx(last_served(twin, 5, 1))


class TestPacing:
    def test_request_delay_limits_rpc_rate(self, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0, BACKOFF_MIN_S=1e9)
        pin(server_mod, RPC_PROCESS_S=0.1)
        sim, _net, server, clients = build(
            1, client_config=ClientConfig(backoff_max_s=1e9),
            server_config=ServerConfig(request_delay_s=30.0))
        submit(server, n=50, flops=5.0)
        server.start_daemons()
        clients[0].start()
        sim.run(until=300.0)
        rpcs = server.tracer.times("sched.rpc", host="c0")
        gaps = [b - a for a, b in zip(rpcs, rpcs[1:])]
        assert gaps and min(gaps) >= 30.0 - 1e-6

    def test_initial_stagger_bounds(self, pin):
        pin(client_mod, INITIAL_STAGGER_S=20.0)
        sim, _net, server, clients = build(8)
        server.start_daemons()
        for c in clients:
            c.start()
        sim.run(until=60.0)
        firsts = [server.tracer.select("sched.rpc", host=c.name)[0].time
                  for c in clients]
        assert all(t <= 20.0 + 2.0 for t in firsts)
        assert max(firsts) - min(firsts) > 1.0  # actually staggered


class TestSpeedFactor:
    def test_speed_factor_slows_compute_only(self, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0, COMPUTE_JITTER=0.0)
        cfg = ClientConfig(speed_factor=0.5)
        sim, _net, server, clients = build(1, client_config=cfg)
        submit(server, n=1, flops=40.0)
        server.start_daemons()
        clients[0].start()
        sim.run(until=300.0)
        rec = server.tracer.select("task.compute_start", host="c0")[0]
        assert rec["runtime"] == pytest.approx(80.0)
        # The server's estimate was still 40s.
        assigns = server.tracer.select("sched.assign", host="c0")
        assert assigns


class TestWorkRequestAccounting:
    def test_work_request_shrinks_with_queued_work(self, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0, WORK_BUFFER_MIN_S=1000.0,
            WORK_BUFFER_TARGET_S=1000.0, COMPUTE_JITTER=0.0)
        sim, _net, server, clients = build(
            1, server_config=ServerConfig(request_delay_s=1.0))
        submit(server, n=10, flops=100.0)
        server.start_daemons()
        clients[0].start()
        sim.run(until=30.0)
        reqs = [r["work_req"] for r in server.tracer.select(
            "sched.rpc", host="c0")]
        assert reqs[0] == pytest.approx(1000.0)
        # After receiving ~200s of work the next request is ~200s smaller.
        assert any(r < 900.0 for r in reqs[1:])
