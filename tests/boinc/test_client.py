"""Unit and integration tests for the BOINC client state machine."""

import copy
import gc
import sys
import weakref

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
)
from repro.boinc import client as client_mod
from repro.net import EMULAB_LINK, LinkSpec, Network, SERVER_LINK
from repro.obs import MetricsRegistry
from repro.sim import RngRegistry, Simulator, Tracer

from .fakes import DigestExecutor, plain_boinc

#: The client constants of ``build``'s quick client (with a 60 s backoff
#: cap), used unless a test passes its own config.
QUICK = {"INITIAL_STAGGER_S": 1.0, "BACKOFF_MIN_S": 10.0,
         "WORK_BUFFER_MIN_S": 60.0, "WORK_BUFFER_TARGET_S": 120.0}


@pytest.fixture
def build(pin):
    """``build(...) -> (sim, net, server, clients)``."""
    def build(n_clients=2, client_config=None, server_config=None,
              flops=1.0, seed=0):
        sim = Simulator()
        net = Network(sim, MetricsRegistry())
        server_host = net.add_host("server", SERVER_LINK)
        rngs = RngRegistry(seed)
        server = ProjectServer(sim, net, server_host, Tracer(),
                               MetricsRegistry(), rngs.stream("server"),
                               config=server_config or ServerConfig())
        if client_config is None:
            pin(client_mod, **QUICK)
            client_config = ClientConfig(backoff_max_s=60.0)
        clients = []
        for i in range(n_clients):
            host = net.add_host(f"c{i}", EMULAB_LINK)
            record = server.register_host(f"c{i}", flops)
            clients.append(Client(sim, net, server, host, record,
                                  config=client_config,
                                  rng=rngs.stream(f"client.c{i}"),
                                  **plain_boinc(DigestExecutor())))
        return sim, net, server, clients
    return build


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
    def test_client_fetches_computes_reports(self, build):
        sim, _net, server, clients = build(n_clients=2)
        wus = submit(server, n=1)
        start_all(server, clients)
        sim.run(until=300.0)
        wu = wus[0]
        assert wu.state is WorkunitState.ASSIMILATED
        results = server.db.results_for_wu(wu.id)
        assert all(r.reported_success for r in results)

    def test_single_client_cannot_complete_quorum_alone(self, build):
        sim, _net, server, clients = build(n_clients=1)
        wus = submit(server, n=1, replication=2, quorum=2)
        start_all(server, clients)
        sim.run(until=300.0)
        # One replica done, the other unassignable (one-per-host rule).
        assert wus[0].state is WorkunitState.ACTIVE
        states = [r.state for r in server.db.results_for_wu(wus[0].id)]
        assert ResultState.OVER in states
        assert ResultState.UNSENT in states

    def test_tasks_run_sequentially_on_one_cpu(self, build, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0, WORK_BUFFER_TARGET_S=1000,
            COMPUTE_JITTER=0.0)
        sim, _net, server, clients = build(n_clients=1,
                                           client_config=ClientConfig())
        submit(server, n=3, flops=50.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=400.0)
        starts = sorted(r.time for r in server.tracer.select(
            "task.compute_start", host="c0"))
        assert len(starts) == 3
        assert starts[1] - starts[0] == pytest.approx(50.0, rel=0.02)
        assert starts[2] - starts[1] == pytest.approx(50.0, rel=0.02)

    def test_compute_time_scales_with_flops(self, build, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0, COMPUTE_JITTER=0.0)
        sim, _net, server, clients = build(n_clients=1, flops=2.0,
                                           client_config=ClientConfig())
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
            BACKOFF_JITTER,
            BACKOFF_MIN_S,
            TRANSFER_BACKOFF_MAX_S,
            TRANSFER_BACKOFF_MIN_S,
        )
        from repro.sim import backoff_delay

        rng = RngRegistry(7).stream("client.c0")
        assert [backoff_delay(rng, BACKOFF_MIN_S, ClientConfig().backoff_max_s,
                              n, BACKOFF_JITTER)
                for n in range(1, 7)] == [
            36.46155614762513, 177.2682753264459, 346.68453052493925,
            610.2749367479229, 587.317937211088, 863.0628586453308]
        rng = RngRegistry(7).stream("client.c0")
        assert [backoff_delay(rng, TRANSFER_BACKOFF_MIN_S,
                              TRANSFER_BACKOFF_MAX_S, n, BACKOFF_JITTER)
                for n in range(1, 7)] == [
            9.115389036906283, 44.31706883161147, 86.67113263123481,
            152.56873418698072, 234.92717488443517, 431.5314293226654]

    def test_live_retry_delay_is_the_same_formula(self):
        """The live clients' 503 retry: same function, live constants,
        any rng with ``random()`` — and never under the server's floor."""
        import random

        from repro.gateway.client import retry_delay

        delays = [retry_delay(random.Random(3), attempt)
                  for attempt in range(8)]
        spans = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        assert all(0.5 * s <= d <= 1.5 * s for s, d in zip(spans, delays))
        assert retry_delay(random.Random(3), 0, retry_after_s=9.0) == 9.0

    def test_no_work_triggers_exponential_backoff(self, build):
        sim, _net, server, clients = build(n_clients=1)
        start_all(server, clients)  # no work submitted at all
        sim.run(until=500.0)
        backoffs = server.tracer.select("client.backoff", host="c0")
        assert len(backoffs) >= 3
        delays = [b["delay"] for b in backoffs]
        # Doubling until the cap, each delay within its +-50% jitter band
        # (the jitter can overturn one doubling: the first two delays here
        # are 12.6 s and 10.3 s).
        assert [b["count"] for b in backoffs] == list(
            range(1, len(backoffs) + 1))
        assert all(0.5 * base <= d <= 1.5 * base for d, base in zip(
            delays, (min(60.0, 10.0 * 2 ** k) for k in range(len(delays)))))
        assert max(delays) <= 60.0 * 1.5 + 1e-9  # cap * (1 + jitter)

    def test_backoff_resets_after_work(self, build):
        sim, _net, server, clients = build(n_clients=2)
        start_all(server, clients)
        sim.run(until=200.0)  # accumulate backoff
        assert clients[0]._backoff_count >= 3
        submit(server, n=4, flops=10.0)
        sim.run(until=400.0)
        # Getting work reset the sequence: the first no-work backoff *after*
        # receiving an assignment starts again near the minimum, not the cap.
        assigns = server.tracer.select("sched.assign", host="c0")
        assert assigns
        post = [r["delay"] for r in server.tracer.select(
            "client.backoff", host="c0") if r.time > assigns[0].time]
        assert post, "client never backed off after draining the new work"
        assert post[0] <= 10.0 * 1.5  # backoff_min * (1 + jitter)

    def test_report_waits_for_backoff_window(self, build, pin):
        """The paper's Fig. 4 pathology: a finished task cannot be reported
        while the client sits in a backoff window."""
        pin(client_mod, INITIAL_STAGGER_S=0.0, BACKOFF_MIN_S=100.0,
            BACKOFF_JITTER=0.0, COMPUTE_JITTER=0.0)
        cfg = ClientConfig(backoff_max_s=100.0)
        sim, _net, server, clients = build(n_clients=1, client_config=cfg)
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=600.0)
        tracer = server.tracer
        ready = tracer.select("task.ready", host="c0")
        report = tracer.select("sched.report", host="c0")
        assert ready and report
        # While computing (~30s) the client polled for more work, got
        # nothing, and entered a 100s backoff; the report had to wait.
        gap = report[0].time - ready[0].time
        assert gap > 30.0

    def test_report_immediately_skips_backoff(self, build, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0, BACKOFF_MIN_S=100.0,
            BACKOFF_JITTER=0.0, COMPUTE_JITTER=0.0)
        cfg = ClientConfig(backoff_max_s=100.0, report_immediately=True)
        sim, _net, server, clients = build(n_clients=1, client_config=cfg)
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=600.0)
        tracer = server.tracer
        ready = tracer.select("task.ready", host="c0")[0]
        report = tracer.select("sched.report", host="c0")[0]
        gap = report.time - ready.time
        assert gap < 5.0


class TestUploadVsReport:
    def test_upload_precedes_report(self, build, pin):
        """Outputs are uploaded as soon as ready; the report waits for the
        next scheduler RPC (Section IV.B)."""
        pin(client_mod, INITIAL_STAGGER_S=0.0, BACKOFF_MIN_S=50.0,
            BACKOFF_JITTER=0.0)
        cfg = ClientConfig(backoff_max_s=50.0)
        sim, _net, server, clients = build(n_clients=1, client_config=cfg)
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=400.0)
        res = server.db.results_for_wu(1)[0]
        assert res.received_at is not None
        assert res.reported_at is not None
        assert res.received_at <= res.reported_at


class TestShutdown:
    def test_shutdown_stops_rpc_activity(self, build):
        sim, _net, server, clients = build(n_clients=1)

        def rpcs():
            return len(server.tracer.select("client.rpc_start",
                                            host=clients[0].name))

        start_all(server, clients)
        sim.run(until=50.0)
        clients[0].go_offline()
        rpcs_at_shutdown = rpcs()
        sim.run(until=500.0)
        assert rpcs() == rpcs_at_shutdown
        assert clients[0].offline and not clients[0].host.online

    def test_shutdown_fails_running_task(self, build, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0)
        sim, _net, server, clients = build(n_clients=1,
                                           client_config=ClientConfig())
        submit(server, n=1, flops=1000.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=60.0)  # task is computing
        assert any(t.state == TaskState.COMPUTING for t in clients[0].tasks)
        clients[0].go_offline()
        sim.run(until=70.0)
        assert clients[0].tasks[0].state == TaskState.FAILED

    def test_come_online_resumes_and_reports_what_was_finished(self, build,
                                                                pin):
        """Client-side state survives the outage: a task finished but not
        yet reported when the host left is reported once it is back."""
        pin(client_mod, INITIAL_STAGGER_S=0.0, BACKOFF_MIN_S=50.0,
            BACKOFF_JITTER=0.0)
        cfg = ClientConfig(backoff_max_s=50.0)
        sim, _net, server, clients = build(n_clients=1, client_config=cfg)
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, clients)
        client = clients[0]
        while not server.tracer.select("task.ready", host=client.name):
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

    def test_double_start_rejected(self, build):
        _sim, _net, _server, clients = build(n_clients=1)
        clients[0].start()
        with pytest.raises(RuntimeError):
            clients[0].start()
        with pytest.raises(RuntimeError):
            clients[0].come_online()  # it never left


class TestClosedTask:
    """A run that ends leaves its tasks suspended; the garbage collector
    later closes their generators.  That close must touch no model state:
    it must not settle the CPU slot, hand it to the queued task, or queue
    callbacks into a simulator nobody will run again."""

    @staticmethod
    def _mid_compute(build, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0)
        sim, _net, server, clients = build(n_clients=1,
                                           client_config=ClientConfig())
        submit(server, n=3, flops=100.0, replication=1, quorum=1)
        start_all(server, clients)
        sim.run(until=30.0)
        client = clients[0]
        assert [t.state for t in client.tasks] == [TaskState.COMPUTING,
                                                   TaskState.WAITING_CPU]
        return sim, client

    def test_closing_a_computing_task_leaves_the_run_as_it_was(self, build,
                                                              pin):
        sim, client = self._mid_compute(build, pin)
        cpu = client._cpu

        def snapshot():
            return (sim.dispatch_count, sim.pending(), repr(sim._seq),
                    cpu.in_use, cpu.released_total, cpu.cancelled_total,
                    len(cpu._waiters))

        before = snapshot()
        for proc in client._task_procs:
            proc._gen.close()  # what the collector's finaliser calls
        assert snapshot() == before

    def test_a_collected_run_queues_nothing_and_raises_nothing(
            self, build, pin, monkeypatch):
        sim, client = self._mid_compute(build, pin)
        drawn, unraisable = [], []

        class Spy:
            """``Simulator._seq`` that notes every key drawn."""

            def __init__(self, keys):
                self.keys = keys

            def __next__(self):
                key = next(self.keys)
                drawn.append(key)
                return key

        sim._seq = Spy(sim._seq)
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        gens = [weakref.ref(proc._gen) for proc in client._task_procs]
        del sim, client
        gc.collect()
        assert gens and all(ref() is None for ref in gens)
        assert drawn == [] and unraisable == []


class TestWake:
    """A task that becomes ready ends the backoff sleep early, and nothing
    else: not the RTT of a scheduler contact, not the start stagger."""

    def test_a_task_finishing_during_the_rtt_does_not_shorten_it(self, pin):
        pin(client_mod, INITIAL_STAGGER_S=0.0, COMPUTE_JITTER=0.0)
        sim = Simulator()
        net = Network(sim, MetricsRegistry())
        rngs = RngRegistry(0)
        server = ProjectServer(sim, net, net.add_host("server", SERVER_LINK),
                               Tracer(), MetricsRegistry(),
                               rngs.stream("server"))
        far = LinkSpec(latency_s=20.0)  # a 40 s round trip
        record = server.register_host("c0", 1.0)
        client = Client(sim, net, server, net.add_host("c0", far), record,
                        rng=rngs.stream("client.c0"),
                        **plain_boinc(DigestExecutor()))
        rtt = net.rtt(client.host, server.host)
        arrivals = []
        serve = server.scheduler_rpc

        def arrive(request):
            arrivals.append(sim.now)
            return serve(request)

        server.scheduler_rpc = arrive
        submit(server, n=1, flops=30.0, replication=1, quorum=1)
        start_all(server, [client])
        sim.run(until=400.0)
        starts = [r.time for r in server.tracer.select("client.rpc_start")]
        ready = server.tracer.select("task.ready", host="c0")[0].time
        # The task is fetched on the first contact and finishes while the
        # client is on the wire asking for more work.
        assert any(t < ready < t + rtt for t in starts)
        assert arrivals == [t + rtt for t in starts[:len(arrivals)]]
        assert len(arrivals) >= 3

    def test_notify_between_go_offline_and_its_interrupt(self, build, pin):
        """``go_offline`` drops the pull loop's process before its
        interrupt lands; a task ready in that same instant must not raise,
        nor cut the new loop's start stagger after ``come_online``."""
        sim, _net, server, clients = build(n_clients=1,
                                           client_config=ClientConfig())
        client = clients[0]
        start_all(server, clients)
        sim.run(until=30.0)  # no work: asleep in a backoff wait
        assert client._napping is client._main_proc is not None
        # Leave just before the backoff ends, with a stagger far longer.
        at = client._next_allowed_rpc - 0.5
        pin(client_mod, INITIAL_STAGGER_S=100.0)
        stagger = copy.deepcopy(client.rng).uniform(0.0, 100.0)
        assert stagger > 1.0

        def leave_and_return():
            client.go_offline()
            client._notify()
            client.come_online()
            client._notify()

        sim.schedule(at - sim.now, leave_and_return)
        sim.run(until=at + 200.0)
        after = [r.time for r in server.tracer.select("client.rpc_start")
                 if r.time >= at]
        assert after[0] == pytest.approx(at + stagger)


class TestFailureRecovery:
    def test_failed_task_reported_and_replaced(self, pin):
        class ExplodingExecutor:
            def execute(self, client, task):
                raise RuntimeError("segfault")

        sim = Simulator()
        net = Network(sim, MetricsRegistry())
        server_host = net.add_host("server", SERVER_LINK)
        rngs = RngRegistry(0)
        server = ProjectServer(sim, net, server_host, Tracer(),
                               MetricsRegistry(), rngs.stream("server"))
        pin(client_mod, INITIAL_STAGGER_S=0.0, BACKOFF_MIN_S=5.0)
        cfg = ClientConfig(backoff_max_s=20.0)
        clients = []
        for i, name in enumerate(("bad", "good1", "good2")):
            host = net.add_host(name, EMULAB_LINK)
            record = server.register_host(name, 1.0)
            executor = (ExplodingExecutor() if name == "bad"
                        else DigestExecutor())
            clients.append(Client(sim, net, server, host, record, config=cfg,
                                  rng=rngs.stream(f"client.{name}"),
                                  **plain_boinc(executor)))
        bad, good1, good2 = clients
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
