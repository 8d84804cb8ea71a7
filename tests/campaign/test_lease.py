"""Unit tests for the lease state machine (no sockets, no clocks)."""

import pytest

from repro.boinc.model import (
    OutputData,
    ResultOutcome,
    ResultState,
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
from repro.campaign.lease import DONE, FAILED, LEASED, PENDING


def _cells(n: int) -> list[CampaignCell]:
    return [CampaignCell(kind="sleep", seed=i) for i in range(n)]


def _table(n: int = 3, **kwargs) -> LeaseTable:
    return LeaseTable(_cells(n), **kwargs)


class TestGrantAndComplete:
    def test_grant_walks_the_queue_in_order(self):
        table = _table(3)
        keys = [table.grant("w0", now=0.0).key for _ in range(3)]
        assert keys == list(table.cells)
        assert table.grant("w0", now=0.0) is None  # queue dry, no stealing

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
        quarantined = table.fail_worker("w0", now=1.0)
        assert quarantined == []  # first loss of each; retry budget left
        assert table.count(PENDING) == 3
        assert table.counters.workers_failed == 1
        assert table.counters.reclaimed == 3
        assert table.live_workers() == []

    def test_fail_worker_quarantines_when_budget_spent(self):
        table = _table(1, retries=0)
        key = table.grant("w0", now=0.0).key
        assert table.fail_worker("w0", now=1.0) == [key]
        assert table.cells[key].status == FAILED

    def test_fail_worker_idempotent(self):
        table = _table(1)
        table.grant("w0", now=0.0)
        table.fail_worker("w0", now=1.0)
        assert table.fail_worker("w0", now=2.0) == []
        assert table.counters.workers_failed == 1

    def test_dead_worker_can_reregister(self):
        table = _table(1)
        table.register("w0", now=0.0)
        table.fail_worker("w0", now=1.0)
        table.register("w0", now=2.0)
        assert table.live_workers() == ["w0"]


class TestStealing:
    def test_steal_duplicates_longest_held_lease(self):
        table = _table(2, steal_after_s=1.0)
        old = table.grant("w0", now=0.0).key
        table.grant("w1", now=4.0)
        lease = table.grant("w2", now=10.0)
        assert lease is not None and lease.stolen and lease.key == old
        assert table.counters.stolen == 1
        assert table.cells[old].status == LEASED

    def test_steal_waits_for_age_threshold(self):
        table = _table(1, steal_after_s=5.0)
        table.grant("w0", now=0.0)
        assert table.grant("w1", now=3.0) is None
        assert table.grant("w1", now=5.0) is not None

    def test_steal_disabled_by_default(self):
        table = _table(1)
        table.grant("w0", now=0.0)
        assert table.grant("w1", now=100.0) is None

    def test_max_leases_caps_duplicates(self):
        table = _table(1, steal_after_s=1.0, max_leases=2)
        table.grant("w0", now=0.0)
        assert table.grant("w1", now=5.0) is not None
        assert table.grant("w2", now=50.0) is None

    def test_worker_never_steals_its_own_cell(self):
        table = _table(1, steal_after_s=1.0)
        table.grant("w0", now=0.0)
        assert table.grant("w0", now=10.0) is None

    def test_first_result_revokes_the_loser(self):
        table = _table(1, steal_after_s=1.0)
        key = table.grant("w0", now=0.0).key
        table.grant("w1", now=5.0)
        assert table.report_ok("w1", key, now=6.0) is True
        assert key in table.touch("w0", now=6.5)
        assert table.report_ok("w0", key, now=7.0) is False

    def test_losing_a_duplicate_does_not_requeue(self):
        # The other lease is still in flight; no retry is charged.
        table = _table(1, lease_s=6.0, steal_after_s=1.0, retries=0)
        key = table.grant("w0", now=0.0).key
        table.grant("w1", now=5.0)       # duplicate, deadline 11.0
        table.expire(now=6.5)            # w0's original lease expires
        assert table.cells[key].status == LEASED
        assert table.cells[key].attempts == 0
        assert table.report_ok("w1", key, now=7.0) is True


class _CoreAsLeaseTable:
    """``SchedulerCore`` driven as a one-cell lease table: the cell is a
    workunit with ``target_nresults=1, min_quorum=1`` and ``retries + 1``
    tolerated errors, a lease is a result, stealing is speculative
    execution.  The mapping ROADMAP item (a) proposed to merge on."""

    def __init__(self, lease_s: float, retries: int,
                 steal_after_s: float | None = None) -> None:
        self.now = 0.0
        self.core = SchedulerCore(
            ServerConfig(delay_bound_s=lease_s,
                         speculative_execution=steal_after_s is not None,
                         speculative_factor=0.0,
                         speculative_min_elapsed_s=steal_after_s or 0.0),
            clock=lambda: self.now)
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
    evidence): the same script through both machines ends differently in
    two places, and each difference is load-bearing on its own side —
    a shared kernel would have to branch on which caller it serves."""

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

    def test_losing_one_of_two_leases_charges_a_workunit_not_a_cell(self):
        # Script: no retries; a duplicate is in flight when the original
        # lease's deadline passes; then the duplicate reports ok.
        table = _table(1, lease_s=6.0, steal_after_s=1.0, retries=0)
        key = table.grant("w0", now=0.0).key
        assert table.grant("w1", now=5.0).stolen
        table.expire(now=6.5)
        assert table.cells[key].status == LEASED
        assert table.cells[key].attempts == 0  # the duplicate still runs
        assert table.report_ok("w1", key, now=7.0) is True
        assert table.cells[key].status == DONE

        core = _CoreAsLeaseTable(lease_s=6.0, retries=0, steal_after_s=1.0)
        first = core.rpc("w0", now=0.0)
        backup = core.rpc("w1", now=5.0)
        results = core.core.db.results
        assert backup is not None and backup != first
        assert results[backup].state is ResultState.IN_PROGRESS
        core.tick(now=6.5)
        # Every timeout counts against max_error_results, live duplicate
        # or not: the workunit is given up while its backup still runs.
        assert core.wu.state is WorkunitState.ERROR
        core.rpc("w1", now=7.0, report=backup)
        assert core.wu.state is WorkunitState.ERROR


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

    def test_zero_max_leases_rejected(self):
        with pytest.raises(ValueError, match="max_leases"):
            _table(1, max_leases=0)

    def test_duplicate_cells_rejected(self):
        cell = CampaignCell(kind="sleep", seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            LeaseTable([cell, cell])
