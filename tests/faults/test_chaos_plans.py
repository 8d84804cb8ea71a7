"""End-to-end chaos runs: every bundled plan must be recovered from.

These are the acceptance tests of the fault-injection subsystem: a small
deployment runs a word-count job while a plan injects its faults, and the
RunAuditor must come back green — the job finished (or failed with a
diagnosis), nothing leaked, every result accounted for.  A final test
pins the determinism contract: same seed + same plan → byte-identical
chrome trace.
"""

import pytest

from repro.core import CloudSpec, MapReduceJobSpec, VolunteerCloud
from repro.faults import BUILTIN_PLANS
from repro.obs import chrome_trace_json


def chaos_run(plan, seed):
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=seed))
    cloud.add_volunteers(12, mr=True)
    cloud.attach_observability(spans=True, probes=False)
    injector = cloud.apply_faults(plan)
    job = cloud.submit(MapReduceJobSpec(
        "wc", n_maps=12, n_reducers=3, input_size=0.5e9))
    diagnosis = None
    try:
        cloud.run_until(job.done)
    except Exception as exc:  # noqa: BLE001 — a diagnosed failure is acceptable
        diagnosis = str(exc)
    report = cloud.audit(job)
    cloud.finish_observability()
    return cloud, job, injector, report, diagnosis


@pytest.mark.parametrize("plan", sorted(BUILTIN_PLANS))
@pytest.mark.parametrize("seed", [1, 2])
def test_bundled_plan_recovers(plan, seed):
    cloud, job, injector, report, diagnosis = chaos_run(plan, seed)
    # Terminal: finished, or failed loudly with a diagnosis.
    assert job.done.triggered
    if diagnosis is not None:
        assert str(job.done.exception)  # the diagnosis is carried
    # Faults actually fired before the run ended.
    assert injector.events, "plan injected nothing"
    # And the end state is clean: nothing leaked, nothing lost.
    assert report.ok, report.render()


def test_same_seed_same_plan_is_byte_identical():
    first = chaos_run("kitchen-sink", seed=3)
    second = chaos_run("kitchen-sink", seed=3)
    assert chrome_trace_json(first[0].span_builder) == \
        chrome_trace_json(second[0].span_builder)


def test_different_seed_differs():
    a = chaos_run("bad-volunteers", seed=1)
    b = chaos_run("bad-volunteers", seed=2)
    assert chrome_trace_json(a[0].span_builder) != \
        chrome_trace_json(b[0].span_builder)


def test_faults_are_visible_in_the_trace():
    cloud, *_ = chaos_run("kitchen-sink", seed=1)
    trace = chrome_trace_json(cloud.span_builder)
    assert '"fault:server_crash:server"' in trace
    assert '"fault:dataserver_outage:dataserver"' in trace


def test_recovery_machinery_engaged():
    """The dataserver plan must actually force client download retries."""
    cloud, *_ = chaos_run("dataserver-degraded", seed=1)
    assert len(cloud.tracer.select("client.download_retry")) > 0


def test_fault_stream_does_not_perturb_the_model():
    """Arming a plan must not change which rng draws the model sees.

    A fault-free run and an armed run share every model stream; only the
    dedicated "faults" stream differs.  Compare a model-driven quantity
    that no fault touches before its first draw: the first map dispatch.
    """
    def first_dispatch(armed):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=11))
        cloud.add_volunteers(12, mr=True)
        if armed:
            cloud.apply_faults("kitchen-sink")
        job = cloud.submit(MapReduceJobSpec(
            "wc", n_maps=12, n_reducers=3, input_size=0.5e9))
        cloud.sim.run(until=50.0)  # before the first fault at t=60
        recs = cloud.tracer.select("sched.assign")
        return [(r.time, r.get("host"), r.get("result")) for r in recs]

    plain, armed = first_dispatch(False), first_dispatch(True)
    assert plain and plain == armed
