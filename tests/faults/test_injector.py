"""Unit tests for deterministic fault application and undo."""

import math

import pytest

from repro.core import CloudSpec, VolunteerCloud
from repro.faults import FaultInjector, FaultSpec


def tiny_cloud(seed=1, n=4):
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=seed))
    cloud.add_volunteers(n, mr=True)
    cloud.start()
    return cloud


def inject(cloud, *specs, run_until=None):
    injector = FaultInjector(cloud, list(specs)).arm()
    if run_until is not None:
        cloud.sim.run(until=run_until)
    return injector


class TestScheduling:
    def test_begin_and_end_on_sim_time(self):
        cloud = tiny_cloud()
        victim = cloud.clients[0]
        inj = inject(cloud, FaultSpec(kind="link_flap", at=10.0,
                                      duration=5.0, target=victim.name))
        cloud.sim.run(until=12.0)
        assert not victim.host.online
        assert inj.active == 1
        cloud.sim.run(until=20.0)
        assert victim.host.online
        assert inj.active == 0
        assert inj.events == [{"fault": "f0", "kind": "link_flap",
                               "target": victim.name, "begin": 10.0,
                               "end": 15.0}]

    def test_arm_is_idempotent(self):
        cloud = tiny_cloud()
        inj = FaultInjector(cloud, [FaultSpec(kind="straggler", at=1.0,
                                              duration=2.0, target="all")])
        inj.arm().arm()
        cloud.sim.run(until=5.0)
        assert len(inj.events) == 1

    def test_tracer_records_emitted(self):
        cloud = tiny_cloud()
        inject(cloud, FaultSpec(kind="server_crash", at=1.0, duration=2.0),
               run_until=5.0)
        assert len(cloud.tracer.select("fault.begin")) == 1
        assert len(cloud.tracer.select("fault.end")) == 1

    def test_metrics_emitted(self):
        cloud = tiny_cloud()
        inject(cloud, FaultSpec(kind="server_crash", at=1.0, duration=2.0),
               run_until=5.0)
        assert cloud.metrics.counter("faults.injected_total").value == 1


class TestTargetSelection:
    def test_random_picks_are_seeded(self):
        picks = []
        for _ in range(2):
            cloud = tiny_cloud(seed=7, n=8)
            inj = inject(cloud, FaultSpec(kind="byzantine", at=1.0,
                                          duration=2.0, target="random:3"),
                         run_until=2.0)
            picks.append(inj.events[0]["target"])
        assert picks[0] == picks[1]
        assert len(picks[0].split(",")) == 3

    def test_all_targets_every_client(self):
        cloud = tiny_cloud(n=3)
        inject(cloud, FaultSpec(kind="straggler", at=1.0, duration=100.0,
                                target="all", params={"factor": 2.0}),
               run_until=2.0)
        assert all(c.slowdown == 2.0 for c in cloud.clients)

    def test_exact_name(self):
        cloud = tiny_cloud()
        victim = cloud.clients[2]
        inject(cloud, FaultSpec(kind="byzantine", at=1.0, duration=100.0,
                                target=victim.name), run_until=2.0)
        assert victim.corrupt_results
        assert not cloud.clients[0].corrupt_results

    def test_unknown_target_raises(self):
        cloud = tiny_cloud()
        inj = FaultInjector(cloud, [FaultSpec(kind="byzantine", at=1.0,
                                              duration=2.0, target="ghost")])
        inj.arm()
        with pytest.raises(ValueError, match="matches no client"):
            cloud.sim.run(until=2.0)


class TestHostFaults:
    def test_bandwidth_scales_and_restores(self):
        cloud = tiny_cloud()
        victim = cloud.clients[0]
        before = victim.host.uplink.capacity
        inject(cloud, FaultSpec(kind="bandwidth", at=1.0, duration=10.0,
                                target=victim.name, params={"factor": 0.5}))
        cloud.sim.run(until=2.0)
        assert victim.host.uplink.capacity == pytest.approx(0.5 * before)
        cloud.sim.run(until=20.0)
        assert victim.host.uplink.capacity == pytest.approx(before)

    def test_straggler_slowdown_restored(self):
        cloud = tiny_cloud()
        victim = cloud.clients[1]
        inject(cloud, FaultSpec(kind="straggler", at=1.0, duration=10.0,
                                target=victim.name, params={"factor": 6.0}))
        cloud.sim.run(until=2.0)
        assert victim.slowdown == 6.0
        cloud.sim.run(until=20.0)
        assert victim.slowdown == 1.0

    def test_straggler_factor_below_one_rejected(self):
        # Refused when the spec is built, before anything is armed.
        with pytest.raises(ValueError, match=">= 1"):
            FaultSpec(kind="straggler", at=1.0, duration=2.0,
                      target="random", params={"factor": 0.5})

    @pytest.mark.parametrize("kind,params", [
        ("bandwidth", {"factor": math.nan}),
        ("straggler", {"factor": math.nan}),
        ("dataserver_slow", {"factor": math.nan}),
        ("transfer_corrupt", {"rate": math.nan}),
    ])
    def test_nan_factor_or_rate_rejected(self, kind, params):
        with pytest.raises(ValueError, match="factor|rate"):
            FaultSpec(kind=kind, at=1.0, duration=2.0, target="random",
                      params=params)

    def test_peer_corrupt_sets_endpoint_flag(self):
        cloud = tiny_cloud()
        victim = cloud.clients[0]
        inject(cloud, FaultSpec(kind="peer_corrupt", at=1.0, duration=10.0,
                                target=victim.name))
        cloud.sim.run(until=2.0)
        assert victim.endpoint.corrupt_serves
        cloud.sim.run(until=20.0)
        assert not victim.endpoint.corrupt_serves

    def test_link_flap_undo_spares_churned_host(self):
        """A flap ending after churn took the host must not resurrect it."""
        cloud = tiny_cloud()
        victim = cloud.clients[0]
        inject(cloud, FaultSpec(kind="link_flap", at=1.0, duration=10.0,
                                target=victim.name))
        cloud.sim.run(until=2.0)
        victim.go_offline()  # churn took it mid-flap
        cloud.sim.run(until=20.0)
        assert not victim.host.online
        victim.come_online()
        assert victim.host.online


class TestSingletonFaults:
    def test_partition_isolates_and_heals(self):
        cloud = tiny_cloud(n=4)
        inject(cloud, FaultSpec(kind="partition", at=1.0, duration=10.0,
                                params={"isolate": 2}))
        cloud.sim.run(until=2.0)
        islanders = [c for c in cloud.clients
                     if not cloud.net.reachable(c.host, cloud.server_host)]
        assert len(islanders) == 2
        assert cloud.net.reachable(islanders[0].host, islanders[1].host)
        cloud.sim.run(until=20.0)
        assert all(cloud.net.reachable(c.host, cloud.server_host)
                   for c in cloud.clients)

    def test_dataserver_outage_flips_availability(self):
        cloud = tiny_cloud()
        inject(cloud, FaultSpec(kind="dataserver_outage", at=1.0,
                                duration=10.0))
        cloud.sim.run(until=2.0)
        assert not cloud.server.dataserver.available
        cloud.sim.run(until=20.0)
        assert cloud.server.dataserver.available

    def test_outage_undo_defers_to_server_crash(self):
        """The outage's undo must not re-enable a crashed server's disk."""
        cloud = tiny_cloud()
        inject(cloud,
               FaultSpec(kind="dataserver_outage", at=1.0, duration=10.0),
               FaultSpec(kind="server_crash", at=5.0, duration=30.0))
        cloud.sim.run(until=12.0)  # outage undone while the crash holds
        assert not cloud.server.dataserver.available
        cloud.sim.run(until=40.0)
        assert cloud.server.dataserver.available

    def test_dataserver_slow_factor_restored(self):
        cloud = tiny_cloud()
        inject(cloud, FaultSpec(kind="dataserver_slow", at=1.0, duration=10.0,
                                params={"factor": 0.25}))
        cloud.sim.run(until=2.0)
        assert cloud.server.dataserver.slow_factor == 0.25
        cloud.sim.run(until=20.0)
        assert cloud.server.dataserver.slow_factor == 1.0

    def test_transfer_corrupt_rate_window(self):
        cloud = tiny_cloud()
        inject(cloud, FaultSpec(kind="transfer_corrupt", at=1.0,
                                duration=10.0, params={"rate": 1.0}))
        cloud.sim.run(until=2.0)
        assert cloud.server.dataserver.corrupt_rate == 1.0
        cloud.sim.run(until=20.0)
        assert cloud.server.dataserver.corrupt_rate == 0.0

    def test_daemon_stall_and_recovery(self):
        cloud = tiny_cloud()
        inject(cloud, FaultSpec(kind="daemon_stall", at=1.0, duration=10.0,
                                params={"daemon": "transitioner"}))
        cloud.sim.run(until=2.0)
        assert cloud.server._stalled_until.get("transitioner", 0.0) > 2.0
        cloud.sim.run(until=20.0)
        assert "transitioner" not in cloud.server._stalled_until

    def test_server_crash_and_restore(self):
        cloud = tiny_cloud()
        inject(cloud, FaultSpec(kind="server_crash", at=1.0, duration=10.0))
        cloud.sim.run(until=2.0)
        assert not cloud.server.available
        assert not cloud.server.dataserver.available
        assert len(cloud.tracer.select("server.crash")) == 1
        cloud.sim.run(until=20.0)
        assert cloud.server.available
        assert cloud.server.dataserver.available
