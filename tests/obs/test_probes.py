"""Tests for the standard probes and the engine self-profiler."""

import hashlib

import pytest

from repro.core import (
    BoincMRConfig,
    CloudSpec,
    MapReduceJobSpec,
    VolunteerCloud,
)
from repro.obs import SelfProfiler, attach_standard_probes
from repro.sim import Simulator


class TestStandardProbes:
    def make_cloud(self):
        cloud = VolunteerCloud.from_spec(
            CloudSpec(seed=2, mr_config=BoincMRConfig()))
        cloud.add_volunteers(6, mr=True)
        return cloud

    def test_registers_expected_gauges(self):
        cloud = self.make_cloud()
        reg = attach_standard_probes(cloud)
        assert reg is cloud.metrics
        registered = {inst.name for inst in reg.instruments()}
        for name in ("sched.rpc_in_use", "sched.rpc_queue_depth",
                     "daemon.transitioner.backlog",
                     "daemon.validator.backlog",
                     "daemon.assimilator.backlog",
                     "net.flows_active", "net.server_uplink_util",
                     "client.tasks_computing"):
            assert name in registered

    def test_idempotent(self):
        cloud = self.make_cloud()
        attach_standard_probes(cloud)
        attach_standard_probes(cloud)  # no TypeError from re-registration

    def test_gauges_track_live_state_through_a_run(self):
        cloud = self.make_cloud()
        cloud.attach_observability(probes=True)
        computing = cloud.metrics.gauge("client.tasks_computing")
        seen = []

        def on_record(rec):
            if rec.kind == "task.compute_start":
                seen.append(computing.value)

        cloud.tracer.tap(on_record)
        cloud.run_job(MapReduceJobSpec("wc", n_maps=6, n_reducers=2,
                                       input_size=60e6))
        # Read mid-run, the gauge counts the task that just started...
        assert seen and min(seen) >= 1
        # ...and after the run nothing computes.
        assert computing.value == 0
        # RPC counters moved.
        assert cloud.metrics.counter("sched.rpc_total").value > 0


def _fingerprint(observe: bool) -> tuple[str, int, int]:
    """Trace digest and kernel counts of one small job, observed or not."""
    cloud = VolunteerCloud.from_spec(
        CloudSpec(seed=2, mr_config=BoincMRConfig()))
    cloud.add_volunteers(6, mr=True)
    if observe:
        cloud.attach_observability(spans=True, probes=True, profile=True)
    cloud.run_job(MapReduceJobSpec("wc", n_maps=6, n_reducers=2,
                                   input_size=60e6))
    digest = hashlib.sha256()
    for rec in cloud.tracer.records:
        digest.update(repr((rec.time, rec.kind, rec.fields)).encode())
    return digest.hexdigest(), cloud.sim.dispatch_count, cloud.sim.peak_pending


def test_observability_adds_no_simulated_event():
    """Spans, probes and the profiler watch the run; none of them
    schedules anything on its clock or changes what it records."""
    assert _fingerprint(observe=True) == _fingerprint(observe=False)


class TestSelfProfiler:
    def test_accounts_dispatches_by_kind(self):
        sim = Simulator()
        prof = SelfProfiler(sim)

        def tick():
            pass

        def proc():
            yield 1.0
            yield 1.0

        sim.schedule(0.5, tick)
        sim.process(proc(), name="worker:a")
        sim.run(until=5.0)
        assert prof.total_seconds > 0
        kinds = dict((k, c) for k, c, _s in prof.top(10))
        assert "process:worker" in kinds
        assert any(k.endswith("tick") for k in kinds)

    def test_top_sorted_by_wall_time(self):
        prof = SelfProfiler(Simulator())
        prof.totals = {"a": [1, 0.5], "b": [1, 2.0], "c": [1, 1.0]}
        assert [k for k, _c, _s in prof.top(2)] == ["b", "c"]

    def test_double_install_rejected(self):
        sim = Simulator()
        SelfProfiler(sim)
        with pytest.raises(RuntimeError, match="already has a dispatch hook"):
            SelfProfiler(sim)

    def test_wall_clock_does_not_perturb_sim_time(self):
        def run(profile):
            sim = Simulator()
            if profile:
                SelfProfiler(sim)
            times = []

            def proc():
                for _ in range(5):
                    yield 1.0
                    times.append(sim.now)

            sim.process(proc(), name="p")
            sim.run()
            return times

        assert run(True) == run(False)

    def test_render_lists_top5(self):
        sim = Simulator()
        prof = SelfProfiler(sim)
        sim.schedule(0.0, lambda: None)
        sim.run()
        text = prof.render()
        assert "total dispatch wall time" in text
