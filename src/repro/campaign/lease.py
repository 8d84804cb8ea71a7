"""Lease bookkeeping for the distributed campaign control plane.

This module is the pure state machine under
:class:`repro.campaign.coordinator.CampaignCoordinator`: it owns which
cell is leased to which worker, for how long, and what happens when a
lease is lost.  It never touches sockets, clocks, or processes — every
method takes ``now`` explicitly — so the whole failure-detection and
reclamation logic is unit-testable without spawning anything
(``tests/campaign/test_lease.py``).

The lifecycle mirrors BOINC's deadline-based work dispatch (Anderson
2019): a cell starts *pending*, a grant moves it to *leased* (with a
deadline when the campaign sets a per-cell ``timeout_s``), a worker
result moves it to *done* (first result wins) or requeues it, and a
lease lost to expiry, worker death, or an error is *reclaimed* — the
cell returns to the pending queue with its attempt counter bumped until
the retry budget is exhausted and it is quarantined as *failed*.  A cell
holds at most one lease: like BOINC, the table reissues lost work at
its deadline rather than lease it to a second worker.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from .grid import CampaignCell

#: Cell lifecycle states tracked by the table.
PENDING, LEASED, DONE, FAILED = "pending", "leased", "done", "failed"


@dataclasses.dataclass(slots=True)
class Lease:
    """One live grant of a cell to a worker."""

    key: str
    worker: str
    attempt: int
    #: Absolute deadline (coordinator clock); ``None`` means the lease
    #: only dies with its worker (no per-cell timeout configured).
    deadline: float | None


@dataclasses.dataclass(slots=True)
class LeaseCounters:
    """Control-plane event totals (the coordinator's obs/report feed)."""

    granted: int = 0
    expired: int = 0
    reclaimed: int = 0
    duplicates: int = 0
    workers_failed: int = 0


@dataclasses.dataclass(slots=True)
class _CellState:
    """Private per-cell record: spec, lifecycle, attempts, live lease."""

    spec: dict[str, _t.Any]
    status: str = PENDING
    #: Attempts lost so far (error / expiry / worker death).
    attempts: int = 0
    lease: Lease | None = None
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
    only reclamation path) and *retries* the extra attempts a cell gets
    after a lost lease before quarantine.
    """

    def __init__(self, cells: _t.Iterable["CampaignCell"], *,
                 lease_s: float | None = None, retries: int = 1) -> None:
        """Index the grid cells; everything starts pending."""
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.lease_s = lease_s
        self.retries = retries
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
            self._drop_lease(self.cells[key])
            if self._account_loss(key) == FAILED:
                quarantined.append(key)
        state.revoked.clear()
        return quarantined

    # -- granting ------------------------------------------------------------
    def grant(self, worker: str, now: float) -> Lease | None:
        """Lease the next pending cell to *worker*.

        Returns ``None`` when the pending queue is empty.
        """
        self.register(worker, now)
        while self._queue:
            key = self._queue.popleft()
            cell = self.cells[key]
            if cell.status == PENDING:
                deadline = (now + self.lease_s if self.lease_s is not None
                            else None)
                lease = Lease(key=key, worker=worker, attempt=cell.attempts,
                              deadline=deadline)
                cell.status = LEASED
                cell.lease = lease
                cell.holders.add(worker)
                state = self.workers[worker]
                state.keys.add(key)
                state.revoked.discard(key)
                self.counters.granted += 1
                return lease
        return None

    # -- results -------------------------------------------------------------
    def report_ok(self, worker: str, key: str, now: float) -> bool:
        """A worker delivered a successful result for *key*.

        Returns True when this is the first (authoritative) result —
        the caller should persist it; a repeat, or a late result for a
        cell already terminal, returns False.  A result from a reclaimed
        lease is still accepted: the work *is* done, so the cell is
        completed instead of being pointlessly re-run, and the lease
        another worker now holds on it is revoked.
        """
        self.register(worker, now)
        cell = self.cells.get(key)
        if cell is None:
            return False
        if cell.status in (DONE, FAILED):
            self.counters.duplicates += 1
            return False
        cell.status = DONE
        if cell.lease is not None and cell.lease.worker == worker:
            self._drop_lease(cell)
        else:  # a late result: whoever holds the cell now is revoked
            self._revoke(cell)
        return True

    def report_error(self, worker: str, key: str, now: float) -> str:
        """A worker's attempt at *key* failed; returns the cell's fate.

        ``"retry"`` — requeued; ``"failed"`` — retry budget exhausted,
        quarantine the cell; ``"ignored"`` — *worker* does not hold its
        lease.
        """
        self.register(worker, now)
        cell = self.cells.get(key)
        if cell is None or cell.lease is None or cell.lease.worker != worker:
            return "ignored"
        self._drop_lease(cell)
        return "retry" if self._account_loss(key) == PENDING else "failed"

    # -- reclamation ---------------------------------------------------------
    def expire(self, now: float) -> list[Lease]:
        """Reclaim every lease whose deadline has passed; returns them."""
        expired = []
        for cell in self.cells.values():
            lease = cell.lease
            if (lease is not None and lease.deadline is not None
                    and now >= lease.deadline):
                expired.append(lease)
                self.counters.expired += 1
                self._revoke(cell)
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
    def _drop_lease(self, cell: _CellState) -> Lease | None:
        """Clear the cell's lease, if it holds one; returns it."""
        lease, cell.lease = cell.lease, None
        if lease is not None:
            self.workers[lease.worker].keys.discard(lease.key)
        return lease

    def _revoke(self, cell: _CellState) -> None:
        """Take a lease away and queue a revocation notice for its worker
        (a holder is never dead: :meth:`fail_worker` drops its leases)."""
        lease = self._drop_lease(cell)
        if lease is not None:
            self.workers[lease.worker].revoked.add(lease.key)

    def _account_loss(self, key: str) -> str:
        """Requeue or quarantine a cell whose lease ended without a
        result; returns the cell's new status."""
        cell = self.cells[key]
        if cell.status in (DONE, FAILED):
            return cell.status
        cell.attempts += 1
        if cell.attempts > self.retries:
            cell.status = FAILED
            return FAILED
        cell.status = PENDING
        self._queue.append(key)
        self.counters.reclaimed += 1
        return PENDING
