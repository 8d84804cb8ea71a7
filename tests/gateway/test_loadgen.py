"""Load-harness tests: small-fleet replay with the full gate set."""

import threading

import numpy as np

from repro.boinc.model import ResultState
from repro.gateway import loadgen
from repro.gateway import (
    GatewayConfig,
    GatewayServer,
    LoadConfig,
    LoadReport,
    run_loadgen,
)
from repro.gateway.loadgen import (
    client_schedule,
    oracle_payload,
    percentiles_ms,
)


class TestSchedules:
    def test_deterministic_per_seed(self):
        cfg = LoadConfig(seed=9, duration_s=4.0)
        assert client_schedule(3, cfg) == client_schedule(3, cfg)
        assert client_schedule(3, cfg) != client_schedule(4, cfg)

    def test_instants_inside_run_window(self, pin):
        pin(loadgen, POLLS_PER_CLIENT=6)
        cfg = LoadConfig(seed=2, duration_s=5.0)
        for index in range(20):
            for t in client_schedule(index, cfg):
                assert 0.0 <= t < cfg.duration_s

    def test_sorted(self):
        sched = client_schedule(0, LoadConfig(seed=1))
        assert sched == sorted(sched)


class TestPercentiles:
    def test_exact_values(self):
        samples = [i / 1000.0 for i in range(1, 101)]  # 1ms..100ms
        p = percentiles_ms(samples)
        assert p["max"] == 100.0
        assert 50.0 <= p["p50"] <= 51.0
        assert 99.0 <= p["p99"] <= 100.0

    def test_empty(self):
        assert percentiles_ms([]) == {"p50": 0.0, "p90": 0.0,
                                      "p99": 0.0, "max": 0.0}


class TestOracle:
    def test_oracle_is_deterministic(self, pin):
        pin(loadgen, CORPUS_BYTES=20_000)
        cfg = LoadConfig(n_maps=3, n_reducers=2)
        assert oracle_payload(cfg) == oracle_payload(cfg)

    def test_oracle_depends_on_seed(self, pin):
        pin(loadgen, CORPUS_BYTES=20_000)
        a = LoadConfig(seed=1)
        b = LoadConfig(seed=2)
        assert oracle_payload(a) != oracle_payload(b)


class TestSmallReplay:
    def test_25_client_replay_hits_every_gate(self, pin):
        pin(loadgen, CORPUS_BYTES=40_000, DRAIN_S=30.0)
        report = run_loadgen(config=LoadConfig(
            n_clients=25, duration_s=2.5, seed=3, n_maps=4, n_reducers=2))
        assert isinstance(report, LoadReport)
        assert report.job_state == "done"
        assert report.errors == 0
        assert report.lost_results == 0
        assert report.duplicated_results == 0
        assert report.equivalent
        assert report.rpcs >= 25  # every client got at least one poll in
        assert report.latency_ms["p99"] >= report.latency_ms["p50"] >= 0
        doc = report.to_dict()
        assert doc["kind"] == "gateway"
        assert np.isfinite(doc["latency_ms"]["p99"])


class TestFleetSharesTheVolunteerCycle:
    """The fleet drives ``client.Volunteer.cycle`` — same reports, same
    retry policy as ``run_volunteer`` — on ``client_schedule`` instants."""

    #: A small job, one replica each, on a short drain.
    SMALL_JOB = dict(CORPUS_BYTES=20_000, REPLICATION=1, QUORUM=1,
                     DRAIN_S=10.0)

    def test_single_poll_client_still_reports_its_work(self, pin):
        pin(loadgen, POLLS_PER_CLIENT=1, **self.SMALL_JOB)
        handle = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
        try:
            report = run_loadgen(handle.address, LoadConfig(
                n_clients=8, duration_s=1.0, seed=5, n_maps=4,
                n_reducers=2))
            core = handle.server.core
            held = [res for res in core.db.results.values()
                    if res.host_id is not None and core.db.hosts[
                        res.host_id].name.startswith("load-")]
        finally:
            handle.close()
        assert report.tasks_done > 0 and len(held) >= report.tasks_done
        # Pending reports were flushed before each client exited: nothing
        # a load client was handed is still waiting on its lease.
        assert all(res.state is ResultState.OVER for res in held)
        assert report.rpcs > 8  # the flush cycles, past one poll each
        assert report.clean and report.lost_results == 0

    def test_503_window_costs_no_error_and_no_result(self, pin):
        pin(loadgen, **self.SMALL_JOB)
        handle = GatewayServer.in_thread(GatewayConfig(daemon_period_s=0.01))
        core = handle.server.core
        timers = [threading.Timer(0.8, setattr, (core, "available", False)),
                  threading.Timer(1.1, setattr, (core, "available", True))]
        try:
            for timer in timers:
                timer.start()
            report = run_loadgen(handle.address, LoadConfig(
                n_clients=25, duration_s=2.0, seed=4, n_maps=4,
                n_reducers=2))
            refused = handle.server.metrics.counter(
                "sched.refused_total").value
        finally:
            for timer in timers:
                timer.join(5.0)
            handle.close()
        assert refused >= 1  # the window was hit ...
        assert report.errors == 0  # ... and backed off through, as
        assert report.clean        # docs/protocol.md says a client must
