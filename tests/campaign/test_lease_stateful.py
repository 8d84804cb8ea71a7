"""Step-wise oracle for the lease table.

A hypothesis state machine grants cells to a few workers, heartbeats,
runs the clock forward and expires leases, fails workers, reports
results and pre-completes cells (the resume path), over a table whose
``lease_s`` and ``retries`` it draws.  Results come only from workers
that held the cell's lease at some point, as the coordinator admits
them.  After every step it checks:

- a cell holds a lease exactly when it is ``leased``, and the holder's
  ``keys`` names the cell;
- no worker's ``keys`` names a cell whose lease it does not hold;
- ``attempts <= retries + 1``;
- a revoked key is returned by exactly one later ``touch`` of its
  worker (a worker declared dead forgets its notices, and a worker
  granted the key again forgets its notice of it);
- no worker holds a key it has a pending revocation of;
- ``done`` holds exactly when every cell is ``done`` or ``failed``.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.campaign import CampaignCell, LeaseTable
from repro.campaign.lease import DONE, FAILED, LEASED, PENDING

WORKERS = ("w0", "w1", "w2")
N_CELLS = 3

workers = st.sampled_from(WORKERS)
picks = st.integers(0, N_CELLS - 1)


class LeaseMachine(RuleBasedStateMachine):
    """One lease table under a random control-plane script."""

    def __init__(self):
        super().__init__()
        self.now = 0.0
        #: Revocation notices each worker's next touch must return.
        self.notices = {w: set() for w in WORKERS}

    @initialize(lease_s=st.none() | st.floats(0.5, 5.0),
                retries=st.integers(0, 3))
    def build_table(self, lease_s, retries):
        self.table = LeaseTable(
            [CampaignCell(kind="sleep", seed=i) for i in range(N_CELLS)],
            lease_s=lease_s, retries=retries)
        self.keys = list(self.table.cells)

    def _holder(self, key):
        lease = self.table.cells[key].lease
        return lease.worker if lease is not None else None

    def _alive(self, worker):
        state = self.table.workers.get(worker)
        return state is not None and not state.dead

    # -- rules ----------------------------------------------------------------
    @rule(worker=workers)
    def grant(self, worker):
        pending = {k for k, c in self.table.cells.items()
                   if c.status == PENDING}
        lease = self.table.grant(worker, self.now)
        if lease is None:
            assert not pending
            return
        assert lease.key in pending and lease.worker == worker
        self.notices[worker].discard(lease.key)  # the key is its again
        assert lease.attempt == self.table.cells[lease.key].attempts
        if self.table.lease_s is None:
            assert lease.deadline is None
        else:
            assert lease.deadline == self.now + self.table.lease_s

    @rule(worker=workers)
    def touch(self, worker):
        assert self.table.touch(worker, self.now) == sorted(
            self.notices[worker])
        self.notices[worker].clear()

    @rule(dt=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0))
    def expire(self, dt):
        self.now += dt
        held = {k: self._holder(k) for k in self.keys}
        expired = self.table.expire(self.now)
        for lease in expired:
            assert held[lease.key] == lease.worker
            assert lease.deadline is not None and lease.deadline <= self.now
            self.notices[lease.worker].add(lease.key)
        for cell in self.table.cells.values():
            deadline = cell.lease.deadline if cell.lease else None
            assert deadline is None or deadline > self.now

    @rule(worker=workers)
    def fail_worker(self, worker):
        alive = self._alive(worker)
        held = {k for k in self.keys if self._holder(k) == worker}
        quarantined = self.table.fail_worker(worker)
        assert set(quarantined) <= held
        assert all(self.table.cells[k].status == FAILED for k in quarantined)
        if alive:
            self.notices[worker].clear()
        else:
            assert quarantined == []

    @rule(worker=workers, pick=picks)
    def report_ok(self, worker, pick):
        key = self.keys[pick]
        if not self.table.ever_held(worker, key):
            return  # the coordinator refuses a stranger's result
        cell = self.table.cells[key]
        was_terminal = cell.status in (DONE, FAILED)
        holder = self._holder(key)
        assert self.table.report_ok(worker, key, self.now) is not was_terminal
        if not was_terminal:
            assert cell.status == DONE
            if holder is not None and holder != worker:
                self.notices[holder].add(key)  # a late result revokes it

    @rule(worker=workers, pick=picks)
    def report_error(self, worker, pick):
        key = self.keys[pick]
        if not self.table.ever_held(worker, key):
            return
        cell = self.table.cells[key]
        holds = self._holder(key) == worker
        fate = self.table.report_error(worker, key, self.now)
        if not holds:
            assert fate == "ignored"
        else:
            assert fate == {PENDING: "retry", FAILED: "failed"}[cell.status]

    @rule(chosen=st.sets(picks))
    def mark_done(self, chosen):
        keys = [self.keys[i] for i in sorted(chosen)]
        pending = [k for k in keys if self.table.cells[k].status == PENDING]
        assert self.table.mark_done(keys) == len(pending)
        assert all(self.table.cells[k].status == DONE for k in pending)

    # -- invariants -----------------------------------------------------------
    @invariant()
    def a_cell_is_leased_exactly_when_it_holds_one_lease(self):
        for key, cell in self.table.cells.items():
            assert (cell.lease is not None) == (cell.status == LEASED)
            if cell.lease is not None:
                assert cell.lease.key == key
                assert key in self.table.workers[cell.lease.worker].keys

    @invariant()
    def a_worker_names_only_the_cells_it_holds(self):
        for worker, state in self.table.workers.items():
            for key in state.keys:
                assert self._holder(key) == worker
            assert not (state.dead and state.keys)

    @invariant()
    def no_worker_is_revoked_a_key_it_holds(self):
        for state in self.table.workers.values():
            assert state.revoked.isdisjoint(state.keys)

    @invariant()
    def attempts_stay_within_the_retry_budget(self):
        for cell in self.table.cells.values():
            assert cell.attempts <= self.table.retries + 1

    @invariant()
    def done_means_every_cell_is_terminal(self):
        terminal = all(c.status in (DONE, FAILED)
                       for c in self.table.cells.values())
        assert self.table.done == terminal


TestLeaseMachine = LeaseMachine.TestCase
TestLeaseMachine.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None)
