"""Post-run consistency auditing: did the system actually recover?

Surviving a fault is not the same as recovering from it.  A chaos run can
"finish" while quietly leaking a semaphore slot (one volunteer computes at
half capacity forever), an aborted flow (phantom bandwidth consumption),
or a result the server neither validated nor timed out (work lost without
diagnosis).  :class:`RunAuditor` sweeps every substrate of a
:class:`~repro.core.system.VolunteerCloud` after a run and asserts the
end-state invariants:

- every workunit is terminal (assimilated, or errored with a reason) —
  or its job failed with a diagnosis;
- every result is accounted for (reported, withdrawn, or deadline-timed
  out — never silently lost);
- no active flows, no semaphore imbalance or stuck waiters, no phantom
  CPU occupancy;
- no open observability spans for results that no longer exist.

Use :meth:`settle` (let the daemon pipeline flush) and :meth:`drain`
(let straggling replicas hit their deadline) before :meth:`audit` when
the run just completed a job.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..boinc.model import ResultState, WorkunitState
from ..boinc.server import DAEMON_PERIOD_S
from ..core.job import JobPhase

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.job import MapReduceJob
    from ..core.system import VolunteerCloud
    from ..net.transfer import SimSemaphore


@dataclasses.dataclass(frozen=True, slots=True)
class Violation:
    """One broken invariant: which check, on what, and what is wrong."""

    check: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.detail}"


@dataclasses.dataclass(slots=True)
class AuditReport:
    """Outcome of one :meth:`RunAuditor.audit` sweep."""

    violations: list[Violation]
    checks: dict[str, int]  # check name -> subjects examined
    at: float

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def render(self) -> str:
        """Human-readable audit summary (one line per check/violation)."""
        lines = [f"audit at t={self.at:g}: "
                 + ("OK" if self.ok else f"{len(self.violations)} violation(s)")]
        for name in sorted(self.checks):
            lines.append(f"  {name}: {self.checks[name]} checked")
        for v in self.violations:
            lines.append(f"  FAIL {v}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, _t.Any]:
        """JSON-serialisable form of the report."""
        return {
            "ok": self.ok,
            "at": self.at,
            "checks": dict(self.checks),
            "violations": [dataclasses.asdict(v) for v in self.violations],
        }


class RunAuditor:
    """End-state invariant checker for a :class:`repro.core.system.VolunteerCloud`."""

    def __init__(self, cloud: "VolunteerCloud") -> None:
        """Auditor over one finished (or quiesced) cloud."""
        self.cloud = cloud

    # -- quiescing --------------------------------------------------------------
    def settle(self, grace_s: float | None = None) -> None:
        """Run the sim long enough for the daemon pipeline to flush."""
        if grace_s is None:
            grace_s = 3.0 * sum(DAEMON_PERIOD_S.values())
        self.cloud.sim.run(until=self.cloud.sim.now + grace_s)

    def drain(self, max_s: float | None = None) -> bool:
        """Run until no result is in flight (reported or deadline-timed out).

        Redundant replicas of an already-finished job legitimately stay
        IN_PROGRESS after the job completes; the server recovers them via
        report or deadline timeout.  Returns True when fully drained
        within *max_s* (default: one delay bound plus daemon margin).
        """
        cfg = self.cloud.server.config
        if max_s is None:
            max_s = (cfg.delay_bound_s
                     + 3.0 * DAEMON_PERIOD_S["transitioner"] + 600.0)
        sim = self.cloud.sim
        deadline = sim.now + max_s
        step = max(60.0, DAEMON_PERIOD_S["transitioner"])
        while sim.now < deadline:
            if not any(r.state is ResultState.IN_PROGRESS
                       for r in self.cloud.server.db.results.values()):
                return True
            sim.run(until=min(sim.now + step, deadline))
        return not any(r.state is ResultState.IN_PROGRESS
                       for r in self.cloud.server.db.results.values())

    # -- the sweep --------------------------------------------------------------
    def audit(self, job: "MapReduceJob | None" = None) -> AuditReport:
        """Sweep every substrate; returns the report (never raises)."""
        violations: list[Violation] = []
        checks: dict[str, int] = {}
        self._check_jobs(job, violations, checks)
        self._check_workunits(violations, checks)
        self._check_results(violations, checks)
        self._check_flows(violations, checks)
        self._check_semaphores(violations, checks)
        self._check_spans(violations, checks)
        return AuditReport(violations=violations, checks=checks,
                           at=self.cloud.sim.now)

    # -- jobs -------------------------------------------------------------------
    def _failed_jobs(self) -> set[str]:
        return {name for name, j in self.cloud.jobtracker.jobs.items()
                if j.phase is JobPhase.FAILED}

    def _check_jobs(self, job: "MapReduceJob | None",
                    violations: list[Violation],
                    checks: dict[str, int]) -> None:
        jobs = ([job] if job is not None
                else list(self.cloud.jobtracker.jobs.values()))
        checks["job"] = len(jobs)
        for j in jobs:
            if not j.done.triggered:
                violations.append(Violation(
                    "job", j.spec.name,
                    f"not terminal (phase={j.phase.name}): neither finished "
                    "nor failed with a diagnosis"))
            elif j.done.exception is not None and j.phase is not JobPhase.FAILED:
                violations.append(Violation(
                    "job", j.spec.name,
                    "done event failed but phase is not FAILED"))

    # -- workunits --------------------------------------------------------------
    def _check_workunits(self, violations: list[Violation],
                         checks: dict[str, int]) -> None:
        db = self.cloud.server.db
        failed_jobs = self._failed_jobs()
        live_horizon = (self.cloud.sim.now
                        - 2.0 * DAEMON_PERIOD_S["transitioner"])
        checks["workunit"] = len(db.workunits)
        for wu in db.workunits.values():
            if wu.state is WorkunitState.ASSIMILATED:
                continue
            if wu.state is WorkunitState.ERROR:
                if not wu.error_reason:
                    violations.append(Violation(
                        "workunit", f"wu{wu.id}",
                        "errored without an error_reason (no diagnosis)"))
                continue
            if wu.mr_job is not None and wu.mr_job in failed_jobs:
                continue  # diagnosed at the job level
            if wu.state is WorkunitState.VALIDATED:
                violations.append(Violation(
                    "workunit", f"wu{wu.id}",
                    "validated but never assimilated (assimilator stalled?)"))
                continue
            # ACTIVE: acceptable only while something can still complete it.
            results = db.results_for_wu(wu.id)
            live = any(
                r.state is ResultState.UNSENT
                or (r.state is ResultState.IN_PROGRESS
                    and (r.deadline is None or r.deadline >= live_horizon))
                for r in results)
            if not live:
                violations.append(Violation(
                    "workunit", f"wu{wu.id}",
                    f"ACTIVE with no live results ({len(results)} total): "
                    "no path to completion"))

    # -- results ----------------------------------------------------------------
    def _check_results(self, violations: list[Violation],
                       checks: dict[str, int]) -> None:
        db = self.cloud.server.db
        now = self.cloud.sim.now
        checks["result"] = len(db.results)
        unsent_ids = set(db._unsent)
        for res in db.results.values():
            if res.state is ResultState.OVER:
                if res.outcome is None:
                    violations.append(Violation(
                        "result", f"r{res.id}",
                        "OVER without an outcome (unaccounted)"))
            elif res.state is ResultState.IN_PROGRESS:
                if (res.deadline is not None and now > res.deadline
                        + 2.0 * DAEMON_PERIOD_S["transitioner"]):
                    violations.append(Violation(
                        "result", f"r{res.id}",
                        f"lost: deadline {res.deadline:g} passed at {now:g} "
                        "but never timed out (transitioner asleep?)"))
            elif res.state is ResultState.UNSENT:
                if res.id not in unsent_ids:
                    violations.append(Violation(
                        "result", f"r{res.id}",
                        "UNSENT but missing from the unsent queue "
                        "(unassignable)"))
        for rid in unsent_ids:
            res = db.results.get(rid)
            if res is None or res.state is not ResultState.UNSENT:
                violations.append(Violation(
                    "result", f"r{rid}",
                    "in the unsent queue but not UNSENT (stale queue entry)"))

    # -- flows ------------------------------------------------------------------
    def _check_flows(self, violations: list[Violation],
                     checks: dict[str, int]) -> None:
        net = self.cloud.net
        active = list(net.flownet.active)
        checks["flow"] = len(active)
        for flow in active:
            hosts = net.flow_hosts(flow)
            offline = [h.name for h in hosts if not h.online]
            if offline:
                violations.append(Violation(
                    "flow", flow.name,
                    f"active flow touching offline host(s) {offline} "
                    "(leaked on churn)"))
            elif flow.finished:
                violations.append(Violation(
                    "flow", flow.name,
                    "finished but still in the active set"))
            elif not flow.background and flow.rate <= 0:
                violations.append(Violation(
                    "flow", flow.name,
                    "foreground flow with zero rate (stalled forever)"))
            else:
                violations.append(Violation(
                    "flow", flow.name,
                    f"still active at audit time ({flow.remaining:.0f}B "
                    "remaining) — transfer outlived its owner"))

    # -- semaphores -------------------------------------------------------------
    def _sem_violations(self, sem: "SimSemaphore", owner: str,
                        expect_idle: bool) -> list[Violation]:
        out = []
        if sem.balance != sem.in_use:
            out.append(Violation(
                "semaphore", f"{owner}:{sem.name}",
                f"accounting broken: granted-released={sem.balance} "
                f"but in_use={sem.in_use}"))
        if not 0 <= sem.in_use <= sem.capacity:
            out.append(Violation(
                "semaphore", f"{owner}:{sem.name}",
                f"in_use={sem.in_use} outside [0, {sem.capacity}]"))
        if sem.waiting > 0 and sem.in_use < sem.capacity:
            out.append(Violation(
                "semaphore", f"{owner}:{sem.name}",
                f"{sem.waiting} waiter(s) queued with free slots "
                "(phantom waiters)"))
        if expect_idle and (sem.in_use > 0 or sem.waiting > 0):
            out.append(Violation(
                "semaphore", f"{owner}:{sem.name}",
                f"slots leaked: in_use={sem.in_use}, waiting={sem.waiting} "
                "with no live process to release them"))
        return out

    def _check_semaphores(self, violations: list[Violation],
                          checks: dict[str, int]) -> None:
        n = 0
        server = self.cloud.server
        violations.extend(self._sem_violations(
            server._rpc_slots, "server", expect_idle=False))
        n += 1
        for client in self.cloud.clients:
            quiescent = not any(p.alive for p in client._task_procs)
            for sem in (client._cpu, client.endpoint.upload_slots,
                        client.endpoint.download_slots):
                violations.extend(self._sem_violations(
                    sem, client.name, expect_idle=quiescent))
                n += 1
        checks["semaphore"] = n

    # -- observability spans -----------------------------------------------------
    def _check_spans(self, violations: list[Violation],
                     checks: dict[str, int]) -> None:
        builder = self.cloud.span_builder
        if builder is None:
            checks["span"] = 0
            return
        db = self.cloud.server.db
        open_ids = builder.open_result_ids()
        checks["span"] = len(open_ids)
        for rid in open_ids:
            res = db.results.get(rid)
            if res is None or res.state is not ResultState.IN_PROGRESS:
                state = "gone" if res is None else res.state.name
                violations.append(Violation(
                    "span", f"r{rid}",
                    f"span still open but result is {state} "
                    "(timeline leak)"))
