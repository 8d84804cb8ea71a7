"""Unit tests for the lease state machine (no sockets, no clocks)."""

import random

import pytest

from repro.boinc.model import (
    OutputData,
    ResultOutcome,
    Workunit,
    WorkunitState,
)
from repro.boinc.server import (
    ReportedResult,
    SchedulerCore,
    SchedulerRequest,
    ServerConfig,
)
from repro.campaign import CampaignCell, LeaseTable
from repro.campaign.lease import DONE, FAILED, PENDING
from repro.obs import MetricsRegistry
from repro.sim import Tracer


def _cells(n: int) -> list[CampaignCell]:
    return [CampaignCell(kind="sleep", seed=i) for i in range(n)]


def _table(n: int = 3, **kwargs) -> LeaseTable:
    return LeaseTable(_cells(n), **kwargs)


class TestGrantAndComplete:
    def test_grant_walks_the_queue_in_order(self):
        table = _table(3)
        keys = [table.grant("w0", now=0.0).key for _ in range(3)]
        assert keys == list(table.cells)
        assert table.grant("w0", now=0.0) is None  # queue dry

    def test_deadline_derived_from_lease_s(self):
        table = _table(1, lease_s=10.0)
        lease = table.grant("w0", now=5.0)
        assert lease.deadline == pytest.approx(15.0)

    def test_no_lease_s_means_no_deadline(self):
        assert _table(1).grant("w0", now=0.0).deadline is None

    def test_first_result_wins_and_completes(self):
        table = _table(1)
        key = table.grant("w0", now=0.0).key
        assert table.report_ok("w0", key, now=1.0) is True
        assert table.cells[key].status == DONE
        assert table.done

    def test_duplicate_result_rejected_and_counted(self):
        table = _table(1)
        key = table.grant("w0", now=0.0).key
        assert table.report_ok("w0", key, now=1.0)
        assert table.report_ok("w0", key, now=2.0) is False
        assert table.counters.duplicates == 1

    def test_result_from_reclaimed_lease_still_accepted(self):
        # The work IS done even though the table gave up on the worker.
        table = _table(1, lease_s=1.0)
        key = table.grant("w0", now=0.0).key
        table.expire(now=5.0)  # lease reclaimed, cell requeued
        assert table.cells[key].status == PENDING
        assert table.report_ok("w0", key, now=6.0) is True
        assert table.cells[key].status == DONE

    def test_done_when_all_terminal(self):
        table = _table(2, retries=0)
        k0 = table.grant("w0", now=0.0).key
        k1 = table.grant("w0", now=0.0).key
        table.report_ok("w0", k0, now=1.0)
        assert not table.done
        assert table.report_error("w0", k1, now=1.0) == "failed"
        assert table.done


class TestRetryAccounting:
    def test_error_requeues_until_budget_spent(self):
        table = _table(1, retries=2)
        key = table.grant("w0", now=0.0).key
        assert table.report_error("w0", key, now=1.0) == "retry"
        assert table.cells[key].status == PENDING
        table.grant("w1", now=2.0)
        assert table.report_error("w1", key, now=3.0) == "retry"
        table.grant("w2", now=4.0)
        assert table.report_error("w2", key, now=5.0) == "failed"
        assert table.cells[key].status == FAILED
        assert table.counters.reclaimed == 2

    def test_attempt_number_rides_the_lease(self):
        table = _table(1, retries=3)
        lease = table.grant("w0", now=0.0)
        assert lease.attempt == 0
        assert table.report_error("w0", lease.key, now=1.0) == "retry"
        assert table.grant("w1", now=2.0).attempt == 1

    def test_same_worker_may_retry_its_own_failed_cell(self):
        # The inline executor is one worker; SchedulerCore grants the
        # same only to quorum-1 workunits (ROADMAP (a), gap 1).
        table = _table(1, retries=1)
        key = table.grant("w0", now=0.0).key
        assert table.report_error("w0", key, now=1.0) == "retry"
        assert table.grant("w0", now=2.0).key == key

    def test_unknown_key_error_ignored(self):
        table = _table(1)
        assert table.report_error("w0", "nope", now=0.0) == "ignored"


class TestExpiry:
    def test_expire_reclaims_and_requeues(self):
        table = _table(1, lease_s=2.0, retries=1)
        key = table.grant("w0", now=0.0).key
        expired = table.expire(now=3.0)
        assert [l.key for l in expired] == [key]
        assert table.cells[key].status == PENDING
        assert table.counters.expired == 1
        assert table.counters.reclaimed == 1
        # the loser learns via its next heartbeat
        assert key in table.touch("w0", now=3.5)

    def test_expire_respects_deadline(self):
        table = _table(1, lease_s=10.0)
        table.grant("w0", now=0.0)
        assert table.expire(now=5.0) == []

    def test_a_regrant_to_the_same_worker_is_not_revoked(self):
        # Regression: grant -> expire -> grant left the expired lease's
        # revocation pending, so the next heartbeat told the worker to
        # drop the cell it had just been granted again.
        table = _table(1, lease_s=1.0, retries=1)
        key = table.grant("w0", now=0.0).key
        table.expire(now=2.0)
        assert table.grant("w0", now=2.0).key == key
        assert table.touch("w0", now=2.5) == []
        assert table.cells[key].lease.worker == "w0"

    def test_expiry_exhausting_budget_quarantines(self):
        table = _table(1, lease_s=1.0, retries=0)
        key = table.grant("w0", now=0.0).key
        table.expire(now=2.0)
        assert table.cells[key].status == FAILED


class TestWorkerFailure:
    def test_dead_worker_detected_by_heartbeat_age(self):
        table = _table(1)
        table.register("w0", now=0.0)
        table.register("w1", now=9.5)
        assert table.dead_workers(now=10.0, liveness_s=1.5) == ["w0"]

    def test_fail_worker_reclaims_all_leases(self):
        table = _table(3, retries=1)
        for _ in range(3):
            table.grant("w0", now=0.0)
        quarantined = table.fail_worker("w0")
        assert quarantined == []  # first loss of each; retry budget left
        assert [c.status for c in table.cells.values()] == [PENDING] * 3
        assert table.counters.workers_failed == 1
        assert table.counters.reclaimed == 3
        assert table.workers["w0"].dead

    def test_fail_worker_quarantines_when_budget_spent(self):
        table = _table(1, retries=0)
        key = table.grant("w0", now=0.0).key
        assert table.fail_worker("w0") == [key]
        assert table.cells[key].status == FAILED

    def test_fail_worker_idempotent(self):
        table = _table(1)
        table.grant("w0", now=0.0)
        table.fail_worker("w0")
        assert table.fail_worker("w0") == []
        assert table.counters.workers_failed == 1

    def test_dead_worker_can_reregister(self):
        table = _table(1)
        table.register("w0", now=0.0)
        table.fail_worker("w0")
        table.register("w0", now=2.0)
        assert list(table.workers) == ["w0"]
        assert not table.workers["w0"].dead


class _CoreAsLeaseTable:
    """``SchedulerCore`` driven as a one-cell lease table: the cell is a
    workunit with ``target_nresults=1, min_quorum=1`` and ``retries + 1``
    tolerated errors, a lease is a result.  The mapping ROADMAP item (a)
    proposed to merge on."""

    def __init__(self, lease_s: float, retries: int) -> None:
        self.now = 0.0
        self.core = SchedulerCore(
            Tracer(), MetricsRegistry(), random.Random(0),
            lambda: self.now, ServerConfig(delay_bound_s=lease_s))
        self.wu = self.core.submit_workunit(Workunit(
            id=0, app_name="cell", input_files=(), flops=1.0,
            target_nresults=1, min_quorum=1, max_error_results=retries + 1))
        self.hosts: dict[str, int] = {}

    def tick(self, now: float) -> None:
        """The daemons' pipeline at *now* (twice: a result the transitioner
        creates is visible to the scheduler after the next feeder pass)."""
        self.now = now
        self.core.run_daemon_passes()
        self.core.run_daemon_passes()

    def rpc(self, worker: str, now: float, report: int | None = None):
        """One scheduler RPC by *worker*: optionally report result id
        *report* as a success, ask for work; returns the granted id."""
        self.tick(now)
        if worker not in self.hosts:
            self.hosts[worker] = self.core.register_host(worker, 1.0).id
        reports = [] if report is None else [ReportedResult(
            report, True, OutputData(digest="d"), elapsed_s=1.0)]
        reply = self.core.handle_scheduler_request(SchedulerRequest(
            self.hosts[worker], work_req_s=1.0, reports=reports))
        self.tick(now)
        return reply.assignments[0].result_id if reply.assignments else None


class TestNotASchedulerCore:
    """Why ``LeaseTable`` is not ``SchedulerCore`` (ROADMAP (a), closed by
    evidence): the same script through both machines ends differently
    where a result arrives for a lease already written off, and each
    ending is load-bearing on its own side — a shared kernel would have
    to branch on which caller it serves."""

    def test_late_report_completes_a_cell_but_not_a_workunit(self):
        # Script: lease, let it expire, then the original worker reports ok.
        table = _table(1, lease_s=1.0)
        key = table.grant("w0", now=0.0).key
        table.expire(now=5.0)
        assert table.report_ok("w0", key, now=6.0) is True
        assert table.cells[key].status == DONE  # the work IS done

        core = _CoreAsLeaseTable(lease_s=1.0, retries=1)
        first = core.rpc("w0", now=0.0)
        core.tick(now=5.0)
        results = core.core.db.results
        assert results[first].outcome is ResultOutcome.NO_REPLY
        core.rpc("w0", now=6.0, report=first)
        # BOINC drops a report for a result it already wrote off: the
        # replacement it issued is the only way forward.
        assert results[first].outcome is ResultOutcome.NO_REPLY
        assert core.wu.state is WorkunitState.ACTIVE
        assert core.wu.canonical_result_id is None


class TestResume:
    def test_mark_done_skips_completed_cells(self):
        table = _table(3)
        keys = list(table.cells)
        assert table.mark_done(keys[:2]) == 2
        assert table.grant("w0", now=0.0).key == keys[2]
        assert table.grant("w0", now=0.0) is None

    def test_mark_done_ignores_unknown_keys(self):
        assert _table(1).mark_done(["nope"]) == 0


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            _table(1, retries=-1)

    def test_duplicate_cells_rejected(self):
        cell = CampaignCell(kind="sleep", seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            LeaseTable([cell, cell])
