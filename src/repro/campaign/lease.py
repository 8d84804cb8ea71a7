"""Lease bookkeeping for the distributed campaign control plane.

This module is the pure state machine under
:class:`repro.campaign.coordinator.CampaignCoordinator`: it owns which
cell is leased to which worker, for how long, and what happens when a
lease is lost.  It never touches sockets, clocks, or processes — every
method takes ``now`` explicitly — so the whole failure-detection and
reclamation logic is unit-testable without spawning anything
(``tests/campaign/test_lease.py``).

The lifecycle mirrors BOINC's deadline-based work dispatch (Anderson
2019): a cell starts *pending*, a grant moves it to *leased* with a
deadline derived from the campaign's per-cell ``timeout_s``, a worker
result moves it to *done* (first result wins) or requeues it, and a
lease lost to expiry, worker death, or an error is *reclaimed* — the
cell returns to the pending queue with its attempt counter bumped until
the retry budget is exhausted and it is quarantined as *failed*.  Near
campaign end, when the pending queue is dry, the table *steals* work:
it grants a duplicate lease on the longest-held in-flight cell to an
idle worker, so one straggler cannot stall the sweep (the campaign
analogue of the paper's slowest-node pathology).
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from .grid import CampaignCell

#: Cell lifecycle states tracked by the table.
PENDING, LEASED, DONE, FAILED = "pending", "leased", "done", "failed"
#: Most grants of one cell live at once: its holder and one stealer.
MAX_LEASES = 2


@dataclasses.dataclass(slots=True)
class Lease:
    """One live grant of a cell to a worker."""

    key: str
    worker: str
    attempt: int
    granted: float
    #: Absolute deadline (coordinator clock); ``None`` means the lease
    #: only dies with its worker (no per-cell timeout configured).
    deadline: float | None
    #: True when this is a duplicate grant stolen from a straggler.
    stolen: bool = False


@dataclasses.dataclass(slots=True)
class LeaseCounters:
    """Control-plane event totals (the coordinator's obs/report feed)."""

    granted: int = 0
    expired: int = 0
    reclaimed: int = 0
    stolen: int = 0
    duplicates: int = 0
    workers_failed: int = 0


@dataclasses.dataclass(slots=True)
class _CellState:
    """Private per-cell record: spec, lifecycle, attempts, live leases."""

    spec: dict[str, _t.Any]
    status: str = PENDING
    #: Attempts lost so far (error / expiry / worker death).
    attempts: int = 0
    leases: dict[str, Lease] = dataclasses.field(default_factory=dict)
    #: Every worker ever granted a lease on the cell.
    holders: set[str] = dataclasses.field(default_factory=set)


@dataclasses.dataclass(slots=True)
class _WorkerState:
    """Private per-worker record: liveness and held/revoked keys."""

    last_seen: float
    keys: set[str] = dataclasses.field(default_factory=set)
    #: Keys whose leases were taken away; drained by the next heartbeat.
    revoked: set[str] = dataclasses.field(default_factory=set)
    dead: bool = False


class LeaseTable:
    """Lease/requeue/quarantine state machine over one campaign grid.

    Parameters: *lease_s* is the per-cell lease duration (``None`` =
    leases never time out on their own — worker-death detection is the
    only reclamation path), *retries* the extra attempts a cell gets
    after a lost lease before quarantine, *steal_after_s* how long a
    sole lease must have been held before an idle worker may duplicate
    it (``None`` disables stealing).  :data:`MAX_LEASES` caps concurrent
    grants per cell.
    """

    def __init__(self, cells: _t.Iterable["CampaignCell"], *,
                 lease_s: float | None = None, retries: int = 1,
                 steal_after_s: float | None = None) -> None:
        """Index the grid cells; everything starts pending."""
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if MAX_LEASES < 1:  # no cell could ever be granted
            raise ValueError(f"MAX_LEASES must be >= 1, got {MAX_LEASES}")
        self.lease_s = lease_s
        self.retries = retries
        self.steal_after_s = steal_after_s
        self.cells: dict[str, _CellState] = {}
        self._queue: collections.deque[str] = collections.deque()
        for cell in cells:
            if cell.key in self.cells:
                raise ValueError(f"duplicate cell key {cell.key}")
            self.cells[cell.key] = _CellState(spec=cell.spec())
            self._queue.append(cell.key)
        self.workers: dict[str, _WorkerState] = {}
        self.counters = LeaseCounters()

    # -- queries -------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True when every cell reached a terminal state (done/failed)."""
        return all(c.status in (DONE, FAILED) for c in self.cells.values())

    def ever_held(self, worker: str, key: str) -> bool:
        """True when *worker* holds, or once held, a lease on *key*."""
        cell = self.cells.get(key)
        return cell is not None and worker in cell.holders

    # -- worker liveness -----------------------------------------------------
    def register(self, worker: str, now: float) -> None:
        """Record (or refresh) a worker; resurrecting a dead id re-registers."""
        state = self.workers.get(worker)
        if state is None or state.dead:
            self.workers[worker] = _WorkerState(last_seen=now)
        else:
            state.last_seen = now

    def touch(self, worker: str, now: float) -> list[str]:
        """Heartbeat: refresh liveness, drain the worker's revoked keys."""
        self.register(worker, now)
        state = self.workers[worker]
        revoked = sorted(state.revoked)
        state.revoked.clear()
        return revoked

    def dead_workers(self, now: float, liveness_s: float) -> list[str]:
        """Workers whose last heartbeat is older than *liveness_s*."""
        return [w for w, s in self.workers.items()
                if not s.dead and now - s.last_seen > liveness_s]

    def fail_worker(self, worker: str) -> list[str]:
        """Declare a worker dead and reclaim every lease it held.

        Returns the keys whose cells were quarantined as a consequence
        (retry budget already spent).
        """
        state = self.workers.get(worker)
        if state is None or state.dead:
            return []
        state.dead = True
        self.counters.workers_failed += 1
        quarantined = []
        for key in sorted(state.keys):
            if self._lose_lease(key, worker) == FAILED:
                quarantined.append(key)
        state.keys.clear()
        state.revoked.clear()
        return quarantined

    # -- granting ------------------------------------------------------------
    def grant(self, worker: str, now: float) -> Lease | None:
        """Lease the next cell to *worker* (stealing when the queue is dry).

        Returns ``None`` when there is nothing this worker can usefully
        run right now (queue empty and no steal candidate).
        """
        self.register(worker, now)
        while self._queue:
            key = self._queue.popleft()
            if self.cells[key].status == PENDING:
                return self._lease(key, worker, now, stolen=False)
        candidate = self._steal_candidate(worker, now)
        if candidate is not None:
            return self._lease(candidate, worker, now, stolen=True)
        return None

    def _lease(self, key: str, worker: str, now: float,
               stolen: bool) -> Lease:
        cell = self.cells[key]
        deadline = now + self.lease_s if self.lease_s is not None else None
        lease = Lease(key=key, worker=worker, attempt=cell.attempts,
                      granted=now, deadline=deadline, stolen=stolen)
        cell.status = LEASED
        cell.leases[worker] = lease
        cell.holders.add(worker)
        self.workers[worker].keys.add(key)
        self.counters.granted += 1
        if stolen:
            self.counters.stolen += 1
        return lease

    def _steal_candidate(self, worker: str, now: float) -> str | None:
        """Longest-held in-flight cell this worker may duplicate."""
        if self.steal_after_s is None:
            return None
        best, best_age = None, self.steal_after_s
        for key, cell in self.cells.items():
            if cell.status != LEASED or worker in cell.leases:
                continue
            if len(cell.leases) >= MAX_LEASES:
                continue
            age = now - min(l.granted for l in cell.leases.values())
            if age >= best_age:
                best, best_age = key, age
        return best

    # -- results -------------------------------------------------------------
    def report_ok(self, worker: str, key: str, now: float) -> bool:
        """A worker delivered a successful result for *key*.

        Returns True when this is the first (authoritative) result —
        the caller should persist it; duplicates (from steals or a
        lease the table already reclaimed) return False.  A result from
        a reclaimed lease is still accepted: the work *is* done, so the
        cell is completed instead of being pointlessly re-run.
        """
        self.register(worker, now)
        cell = self.cells.get(key)
        if cell is None:
            return False
        self._drop_lease(cell, key, worker)
        if cell.status in (DONE, FAILED):
            self.counters.duplicates += 1
            return False
        cell.status = DONE
        for other in list(cell.leases):
            self._revoke(cell, key, other)
        return True

    def report_error(self, worker: str, key: str, now: float) -> str:
        """A worker's attempt at *key* failed; returns the cell's fate.

        ``"retry"`` — requeued; ``"failed"`` — retry budget exhausted,
        quarantine the cell; ``"ignored"`` — another lease is still
        running the cell, or it already finished.
        """
        self.register(worker, now)
        cell = self.cells.get(key)
        if cell is None or (worker not in cell.leases
                            and cell.status != LEASED):
            return "ignored"
        outcome = self._lose_lease(key, worker)
        return {PENDING: "retry", FAILED: "failed"}.get(outcome, "ignored")

    # -- reclamation ---------------------------------------------------------
    def expire(self, now: float) -> list[Lease]:
        """Reclaim every lease whose deadline has passed; returns them."""
        expired = []
        for cell in list(self.cells.values()):
            for lease in list(cell.leases.values()):
                if lease.deadline is not None and now >= lease.deadline:
                    expired.append(lease)
                    self.counters.expired += 1
                    self._revoke(cell, lease.key, lease.worker)
                    self._account_loss(lease.key)
        return expired

    def mark_done(self, keys: _t.Iterable[str]) -> int:
        """Pre-complete cells (resume path); returns how many matched."""
        n = 0
        for key in keys:
            cell = self.cells.get(key)
            if cell is not None and cell.status == PENDING:
                cell.status = DONE
                n += 1
        return n

    # -- internals -----------------------------------------------------------
    def _drop_lease(self, cell: _CellState, key: str, worker: str) -> None:
        cell.leases.pop(worker, None)
        state = self.workers.get(worker)
        if state is not None:
            state.keys.discard(key)

    def _revoke(self, cell: _CellState, key: str, worker: str) -> None:
        """Take a lease away and queue a revocation notice for its worker."""
        self._drop_lease(cell, key, worker)
        state = self.workers.get(worker)
        if state is not None and not state.dead:
            state.revoked.add(key)

    def _lose_lease(self, key: str, worker: str) -> str:
        """A lease ended without a result; returns the cell's new status."""
        cell = self.cells[key]
        self._drop_lease(cell, key, worker)
        return self._account_loss(key)

    def _account_loss(self, key: str) -> str:
        """Requeue or quarantine a cell that lost a lease."""
        cell = self.cells[key]
        if cell.status in (DONE, FAILED):
            return cell.status
        if cell.leases:
            return cell.status  # a duplicate lease is still in flight
        cell.attempts += 1
        if cell.attempts > self.retries:
            cell.status = FAILED
            return FAILED
        cell.status = PENDING
        self._queue.append(key)
        self.counters.reclaimed += 1
        return PENDING
