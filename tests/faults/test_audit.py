"""Unit tests for the RunAuditor's end-state invariant checks."""

import pytest

from repro.boinc.model import ResultState, WorkunitState
from repro.core import CloudSpec, MapReduceJobSpec, VolunteerCloud
from repro.faults import RunAuditor


def finished_cloud(seed=1, spans=False):
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=seed))
    cloud.add_volunteers(6, mr=True)
    if spans:
        cloud.attach_observability(spans=True, probes=False)
    job = cloud.run_job(MapReduceJobSpec(
        "wc", n_maps=6, n_reducers=2, input_size=60e6))
    return cloud, job


class TestCleanRun:
    def test_audit_is_green(self):
        cloud, job = finished_cloud()
        report = cloud.audit(job)
        assert report.ok, report.render()
        assert report.checks["workunit"] > 0
        assert report.checks["result"] > 0
        assert report.checks["semaphore"] > 0

    def test_drain_reports_quiescence(self):
        cloud, job = finished_cloud()
        auditor = RunAuditor(cloud)
        auditor.settle()
        assert auditor.drain() is True

    def test_report_render_and_dict(self):
        cloud, job = finished_cloud()
        report = cloud.audit(job)
        assert "OK" in report.render()
        d = report.to_dict()
        assert d["ok"] is True and d["violations"] == []


class TestViolationDetection:
    def test_leaked_cpu_slot_detected(self):
        cloud, job = finished_cloud()
        cloud.clients[0]._cpu.acquire()  # slot held with no live process
        report = cloud.audit(job, settle=False)
        assert any(v.check == "semaphore" and "leaked" in v.detail
                   for v in report.violations)

    def test_broken_semaphore_accounting_detected(self):
        cloud, job = finished_cloud()
        cloud.clients[0]._cpu.granted_total += 1
        report = cloud.audit(job, settle=False)
        assert any(v.check == "semaphore" and "accounting" in v.detail
                   for v in report.violations)

    def test_leaked_flow_detected(self):
        cloud, job = finished_cloud()
        cloud.net.transfer(cloud.clients[0].host, cloud.clients[1].host, 1e12)
        report = cloud.audit(job, settle=False)
        assert any(v.check == "flow" for v in report.violations)

    def test_lost_result_detected(self):
        cloud, job = finished_cloud()
        res = next(iter(cloud.server.db.results.values()))
        res.state = ResultState.IN_PROGRESS
        res.deadline = 0.0  # long past; the transitioner never noticed
        report = cloud.audit(job, settle=False)
        assert any(v.check == "result" and "lost" in v.detail
                   for v in report.violations)

    def test_stale_unsent_queue_detected(self):
        cloud, job = finished_cloud()
        res = next(iter(cloud.server.db.results.values()))
        assert res.state is ResultState.OVER
        cloud.server.db._unsent[res.id] = None
        report = cloud.audit(job, settle=False)
        assert any(v.check == "result" and "stale" in v.detail
                   for v in report.violations)

    def test_errored_workunit_needs_diagnosis(self):
        cloud, job = finished_cloud()
        wu = next(iter(cloud.server.db.workunits.values()))
        wu.state = WorkunitState.ERROR
        wu.error_reason = None
        report = cloud.audit(job, settle=False)
        assert any(v.check == "workunit" and "diagnosis" in v.detail
                   for v in report.violations)

    def test_stranded_workunit_detected(self):
        cloud, job = finished_cloud()
        wu = next(iter(cloud.server.db.workunits.values()))
        wu.state = WorkunitState.ACTIVE  # but all its results are OVER
        report = cloud.audit(job, settle=False)
        assert any(v.check == "workunit" and "no path to completion" in v.detail
                   for v in report.violations)

    def test_open_span_for_dead_result_detected(self):
        class StubBuilder:
            def open_result_ids(self):
                return [999_999]

        cloud, job = finished_cloud()
        cloud.span_builder = StubBuilder()
        report = cloud.audit(job, settle=False)
        assert any(v.check == "span" and "gone" in v.detail
                   for v in report.violations)

    def test_unfinished_job_flagged(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
        cloud.add_volunteers(6, mr=True)
        job = cloud.submit(MapReduceJobSpec(
            "wc", n_maps=6, n_reducers=2, input_size=60e6))
        cloud.sim.run(until=5.0)  # nowhere near done
        report = RunAuditor(cloud).audit(job)
        assert any(v.check == "job" and "not terminal" in v.detail
                   for v in report.violations)
        assert not report.ok
