"""The BOINC project server: scheduler RPC handler + back-end daemons.

This mirrors the server-side architecture the paper modified (BOINC server
6.11): a *scheduler* answers client RPCs (reports in, work out — strictly
pull-based), a *feeder* exposes a bounded cache of unsent results to the
scheduler, a *transitioner* drives workunit/result state transitions
(replica creation, deadline timeouts, quorum-possible flagging), a
*validator* compares replica outputs and picks a canonical result, and an
*assimilator* hands validated work to project code (for BOINC-MR, the
JobTracker in :mod:`repro.core`).

The daemons are simulation processes polling the database on configurable
periods — these periods are *load-bearing* for the paper's results: the
dead time between the last map report and the first reduce assignment is
exactly one transitioner + validator + assimilator + feeder pipeline delay,
during which clients keep backing off (Section IV.B).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..net import Host, Network, SimSemaphore
from ..sim import Event, Simulator, Tracer, jittered

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
from .dataserver import DataServer, ServerUnavailable
from .model import (
    Database,
    HostRecord,
    OutputData,
    Result,
    ResultOutcome,
    ResultState,
    ValidateState,
    Workunit,
    WorkunitState,
)


#: Daemon polling periods (seconds), in pipeline order.  BOINC defaults
#: poll every few seconds on a loaded project; these values reproduce the
#: transition latencies discussed in Section IV.B.
DAEMON_PERIOD_S = {"feeder": 5.0, "transitioner": 10.0,
                   "validator": 10.0, "assimilator": 10.0}


@dataclasses.dataclass(slots=True)
class ServerConfig:
    """Tunables for the project server and its daemons."""

    #: Feeder shared-memory slots (results visible to the scheduler).
    feeder_cache_size: int = 100
    #: Result deadline: sent_at + delay_bound.
    delay_bound_s: float = 6 * 3600.0
    #: Reply field telling the client the minimum wait before its next RPC.
    request_delay_s: float = 6.0
    #: Hadoop-style speculative execution: when an assigned result has
    #: been out for :data:`SPECULATIVE_FACTOR` x its estimated runtime
    #: (and at least :data:`SPECULATIVE_MIN_ELAPSED_S`), the transitioner
    #: creates a backup replica on another host.  Directly attacks the
    #: paper's Fig. 4 straggler: a backup replica can complete the quorum
    #: while the original sits unreported in a backoff window.
    speculative_execution: bool = False
    #: BOINC's adaptive replication: workunits start with a single
    #: replica; a result from a host with fewer than
    #: :data:`ADAPTIVE_TRUST_THRESHOLD` validated results — or any result
    #: drawn for a spot check — escalates the workunit to its full quorum.
    #: Trades the paper's fixed 2x redundancy for reputation + sampling.
    adaptive_replication: bool = False


#: Max simultaneous scheduler RPCs before requests queue (congestion).
RPC_CAPACITY = 10
#: Server-side processing time per scheduler RPC.
RPC_PROCESS_S = 0.5
#: Cap on results handed out in a single RPC.  Keeping this small spreads
#: a single job's results evenly over the cluster, matching the paper's
#: ~(replication x maps / nodes) tasks per node.
MAX_RESULTS_PER_RPC = 2
#: Speculative execution's straggler threshold (``speculative_execution``).
SPECULATIVE_FACTOR = 3.0
SPECULATIVE_MIN_ELAPSED_S = 120.0
#: Validated results a host needs before adaptive replication trusts a
#: lone result from it.
ADAPTIVE_TRUST_THRESHOLD = 2
#: Share of adaptive results drawn for a spot check.
ADAPTIVE_SPOT_CHECK_RATE = 0.1


@dataclasses.dataclass(slots=True)
class ReportedResult:
    """A completed task reported through a scheduler RPC."""

    result_id: int
    success: bool
    output: OutputData | None
    elapsed_s: float


@dataclasses.dataclass(slots=True)
class Assignment:
    """One result handed to a client, plus everything needed to run it."""

    result_id: int
    wu: Workunit
    est_runtime_s: float
    deadline: float
    #: For MR reduce tasks: map_index -> list of peer addresses holding the
    #: map output (empty when inputs come from the data server).
    peer_locations: dict[int, list[str]] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(slots=True)
class SchedulerRequest:
    """One client-initiated scheduler RPC: work ask + piggybacked reports."""

    host_id: int
    work_req_s: float
    reports: list[ReportedResult] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(slots=True)
class SchedulerReply:
    """Scheduler's answer: assignments plus the next-contact delay."""

    assignments: list[Assignment]
    request_delay_s: float
    #: True when the server currently has no work for this host.
    no_work: bool = False
    #: Reports refused because this host does not hold their result.
    refused_reports: int = 0


class SchedulerCore:
    """Transport-agnostic scheduler + daemon logic around a :class:`Database`.

    Everything BOINC-semantic lives here — work assignment, report
    acceptance, the feeder/transitioner/validator/assimilator passes,
    replication and quorum — with *no* reference to the simulator, the
    flow network, or any transport.  Time comes from an injected ``clock``
    callable, so the same state machine serves two front ends:

    - :class:`ProjectServer` drives it on simulated time (``sim.now``)
      behind the simulated RPC gate;
    - :class:`repro.gateway.GatewayServer` drives it on wall-clock time
      behind a live asyncio HTTP listener.

    Validation/replication semantics are therefore shared, not forked: a
    behaviour proven in simulation holds verbatim on the live gateway.

    Project-specific behaviour is attached through hooks:

    - ``assimilate_handler(wu, canonical_result)`` — called once per
      validated workunit (the BOINC assimilator contract);
    - ``locate_reduce_inputs(wu, host)`` — returns the peer-address map for
      a reduce assignment (BOINC-MR's JobTracker), or ``{}``;
    - ``publish_input(ref)`` — called per input file on submission (the
      data-server publish seam).
    """

    def __init__(self, config: ServerConfig | None = None,
                 tracer: Tracer | None = None,
                 rng=None,
                 metrics: "MetricsRegistry | None" = None,
                 clock: _t.Callable[[], float] | None = None) -> None:
        """Create the scheduler state machine (database, hooks, clock)."""
        self.config = config or ServerConfig()
        # Explicit None check: an empty Tracer is falsy (it has __len__).
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = rng
        #: Optional :class:`repro.obs.MetricsRegistry`; when present the
        #: scheduler and daemons keep BOINC server-status style counters.
        self.metrics = metrics
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.db = Database()
        self._feeder_visible: set[int] = set()
        self._dirty_wus: set[int] = set()
        self.assimilate_handler: _t.Callable[[Workunit, Result], None] | None = None
        self.locate_reduce_inputs: _t.Callable[
            [Workunit, HostRecord], dict[int, list[str]]] | None = None
        #: Invoked when a workunit is abandoned after too many errors.
        self.on_wu_error: _t.Callable[[Workunit], None] | None = None
        #: Called with each input :class:`FileRef` on submission.
        self.publish_input: _t.Callable[..., None] | None = None
        #: Fault injection: False refuses every scheduler RPC (server down).
        self.available = True

    @property
    def now(self) -> float:
        """Current time from the injected clock (sim or wall)."""
        return self._clock()

    def run_daemon_passes(self) -> None:
        """One tick of every back-end daemon, in pipeline order.

        The live gateway calls this on a wall-clock cadence; the simulator
        instead runs each pass on its own configured period.
        """
        self._feeder_pass()
        self._transitioner_pass()
        self._validator_pass()
        self._assimilator_pass()
    # -- work submission ------------------------------------------------------------
    def submit_workunit(self, wu: Workunit, publish_inputs: bool = True) -> Workunit:
        """Insert *wu* and its initial replicas (the ``create_work`` script)."""
        wu = self.db.insert_workunit(wu)
        if self.config.adaptive_replication and wu.min_quorum > 1:
            # Single replica first; the validator escalates to the full
            # quorum for untrusted hosts and spot checks.
            wu.adaptive = True
            wu.adaptive_quorum = wu.min_quorum
            wu.min_quorum = 1
            wu.target_nresults = 1
        for _ in range(wu.target_nresults):
            self.db.insert_result(wu, created_at=self.now)
        if publish_inputs and self.publish_input is not None:
            for ref in wu.input_files:
                self.publish_input(ref)
        self._dirty_wus.add(wu.id)
        if self.metrics is not None:
            self.metrics.counter("server.workunits_submitted_total").inc()
        self.tracer.record(self.now, "server.wu_submitted", wu=wu.id,
                           job=wu.mr_job, kind=wu.mr_kind, index=wu.mr_index)
        return wu

    def register_host(self, name: str, flops: float,
                      supports_mr: bool = False) -> HostRecord:
        """Add a volunteer host to the project database."""
        return self.db.insert_host(name, flops, supports_mr=supports_mr)

    # -- scheduler RPC ------------------------------------------------------------
    def handle_scheduler_request(self, request: SchedulerRequest
                                 ) -> SchedulerReply:
        """Answer one scheduler RPC synchronously (no transport delay).

        Raises :class:`ServerUnavailable` when the server is down — both
        front ends map this to their transport's retry-later signal (the
        simulated client's exponential backoff, the gateway's HTTP 503).
        """
        if not self.available:
            if self.metrics is not None:
                self.metrics.counter("sched.refused_total").inc()
            raise ServerUnavailable("scheduler is down")
        return self._handle_rpc_now(request)

    def _handle_rpc_now(self, request: SchedulerRequest) -> SchedulerReply:
        host = self.db.hosts[request.host_id]
        self.tracer.record(self.now, "sched.rpc", host=host.name,
                           work_req=request.work_req_s,
                           n_reports=len(request.reports))
        refused = 0
        for report in request.reports:
            refused += not self._accept_report(report, host)
        assignments: list[Assignment] = []
        no_work = False
        if request.work_req_s > 0:
            assignments = self._assign_work(host, request.work_req_s)
            no_work = not assignments
        if self.metrics is not None:
            self.metrics.counter("sched.rpc_total").inc()
            if request.reports:
                self.metrics.counter("sched.reports_total").inc(
                    len(request.reports))
            if assignments:
                self.metrics.counter("sched.assignments_total").inc(
                    len(assignments))
            if no_work:
                self.metrics.counter("sched.no_work_total").inc()
        return SchedulerReply(assignments=assignments,
                              request_delay_s=self.config.request_delay_s,
                              no_work=no_work, refused_reports=refused)

    def _accept_report(self, report: ReportedResult, host: HostRecord) -> bool:
        """Take *host*'s report of one result; False if it was refused.

        Only the host a result was sent to may report it, on either
        transport: a report of an unknown result or of another host's
        changes nothing.  A late one from the holder (the result already
        timed out and was replaced) is dropped, as BOINC drops it.
        """
        res = self.db.results.get(report.result_id)
        if res is None or res.host_id != host.id:
            return False
        if res.state is not ResultState.IN_PROGRESS:
            return True
        res.state = ResultState.OVER
        res.outcome = (ResultOutcome.SUCCESS if report.success
                       else ResultOutcome.CLIENT_ERROR)
        res.reported_at = self.now
        res.elapsed_s = report.elapsed_s
        if report.success:
            res.output = report.output
            if res.received_at is None:
                # Report and upload may race; the report implies the data
                # is available (hash-only reporting in BOINC-MR).
                res.received_at = self.now
        self._dirty_wus.add(res.wu_id)
        if self.metrics is not None and res.sent_at is not None:
            self.metrics.histogram("sched.result_turnaround_s").observe(
                self.now - res.sent_at)
        wu = self.db.workunits[res.wu_id]
        self.tracer.record(self.now, "sched.report", host=host.name,
                           result=res.id, wu=res.wu_id, success=report.success,
                           job=wu.mr_job, kind=wu.mr_kind, index=wu.mr_index)
        return True

    def record_upload(self, result_id: int) -> None:
        """Mark a result's output data as landed on the server (pre-report)."""
        res = self.db.results.get(result_id)
        if res is not None and res.received_at is None:
            res.received_at = self.now
            self.tracer.record(self.now, "server.upload_received",
                               result=res.id, wu=res.wu_id)

    def _assign_work(self, host: HostRecord, work_req_s: float) -> list[Assignment]:
        out: list[Assignment] = []
        booked = 0.0
        for rid in self._eligible_results(host):
            if booked >= work_req_s or len(out) >= MAX_RESULTS_PER_RPC:
                break
            res = self.db.results.get(rid)
            if res is None or res.state is not ResultState.UNSENT:
                continue  # raced with another assignment this pass
            wu = self.db.workunits[res.wu_id]
            # Re-check within the pass: an earlier assignment in this very
            # RPC may have given this host a replica of the same workunit.
            if self._barred(wu, host, self.db.hosts_with_result_of_wu(wu.id)):
                continue
            peer_locations: dict[int, list[str]] = {}
            if wu.mr_kind == "reduce" and self.locate_reduce_inputs is not None:
                peer_locations = self.locate_reduce_inputs(wu, host)
            est = wu.flops / host.flops
            deadline = self.now + self.config.delay_bound_s
            self.db.mark_sent(res, host, self.now, deadline)
            self._feeder_visible.discard(rid)
            out.append(Assignment(result_id=res.id, wu=wu, est_runtime_s=est,
                                  deadline=deadline,
                                  peer_locations=peer_locations))
            booked += est
            self.tracer.record(self.now, "sched.assign", host=host.name,
                               result=res.id, wu=wu.id, job=wu.mr_job,
                               kind=wu.mr_kind, index=wu.mr_index)
        return out

    def _barred(self, wu: Workunit, host: HostRecord,
                assigned_hosts: set[int]) -> bool:
        """Whether *host* may not take (another) replica of *wu*.

        One replica of a WU per host, or redundancy is meaningless — so a
        host that ever held one is out.  A workunit validated on a single
        result has nothing to cross-check: there only a replica still in
        progress bars the host, and it may retry its own failed or
        timed-out result (a lone volunteer would otherwise wedge the job).
        """
        if host.id not in assigned_hosts:
            return False
        if wu.min_quorum > 1 or wu.adaptive:
            return True
        return any(r.host_id == host.id
                   and r.state is ResultState.IN_PROGRESS
                   for r in self.db.results_for_wu(wu.id))

    def _eligible_results(self, host: HostRecord) -> list[int]:
        """Feeder-cache results this host may receive, in serving order.

        Enforces one-replica-per-host; serving order is the feeder's.
        """
        eligible: list[int] = []
        for rid in list(self._feeder_visible):
            res = self.db.results.get(rid)
            if res is None or res.state is not ResultState.UNSENT:
                self._feeder_visible.discard(rid)
                continue
            wu = self.db.workunits[res.wu_id]
            if wu.state is not WorkunitState.ACTIVE:
                self._feeder_visible.discard(rid)
                continue
            if not self._barred(wu, host,
                                self.db.hosts_with_result_of_wu(wu.id)):
                eligible.append(rid)
        return eligible

    # -- daemons ------------------------------------------------------------------
    def _feeder_pass(self) -> None:
        """Refill the shared-memory cache with unsent results, FIFO."""
        space = self.config.feeder_cache_size
        visible: set[int] = set()
        for res in self.db.unsent_results():
            if len(visible) >= space:
                break
            visible.add(res.id)
        self._feeder_visible = visible

    def _transitioner_pass(self) -> None:
        now = self.now
        # Deadline sweep is global (BOINC does it in the transitioner too).
        for res in self.db.in_progress_results():
            if res.deadline is not None and now > res.deadline:
                res.state = ResultState.OVER
                res.outcome = ResultOutcome.NO_REPLY
                self._dirty_wus.add(res.wu_id)
                if self.metrics is not None:
                    self.metrics.counter(
                        "daemon.transitioner.timeouts_total").inc()
                self.tracer.record(now, "transitioner.timeout", result=res.id,
                                   wu=res.wu_id)
        if self.config.speculative_execution:
            self._speculative_pass(now)
        dirty, self._dirty_wus = self._dirty_wus, set()
        for wu_id in sorted(dirty):
            self._transition_wu(self.db.workunits[wu_id])

    def _speculative_pass(self, now: float) -> None:
        """Create backup replicas for results that look like stragglers."""
        for res in self.db.in_progress_results():
            wu = self.db.workunits[res.wu_id]
            if wu.state is not WorkunitState.ACTIVE or res.sent_at is None:
                continue
            host = self.db.hosts[res.host_id]
            est = wu.flops / host.flops
            threshold = max(SPECULATIVE_MIN_ELAPSED_S,
                            SPECULATIVE_FACTOR * est)
            if now - res.sent_at < threshold:
                continue
            results = self.db.results_for_wu(wu.id)
            if any(r.state is ResultState.UNSENT for r in results):
                continue  # a backup (or fresh replica) is already queued
            if len(results) >= wu.max_total_results:
                continue
            self.db.insert_result(wu, created_at=now)
            self.tracer.record(now, "transitioner.speculative", wu=wu.id,
                               laggard=res.id, host=host.name,
                               out_for=now - res.sent_at)

    def _transition_wu(self, wu: Workunit) -> None:
        if wu.state is not WorkunitState.ACTIVE:
            return
        results = self.db.results_for_wu(wu.id)
        n_success = sum(1 for r in results if r.reported_success
                        and r.validate_state is not ValidateState.INVALID)
        n_outstanding = sum(1 for r in results
                            if r.state in (ResultState.UNSENT,
                                           ResultState.IN_PROGRESS))
        n_errors = sum(
            1 for r in results
            if (r.state is ResultState.OVER and not r.reported_success)
            or r.validate_state is ValidateState.INVALID
        )
        if n_errors >= wu.max_error_results:
            wu.state = WorkunitState.ERROR
            wu.error_reason = f"{n_errors} errored results"
            self.tracer.record(self.now, "transitioner.wu_error", wu=wu.id)
            if self.on_wu_error is not None:
                self.on_wu_error(wu)
            return
        # Top up replicas: errors and timeouts spawn replacement results.
        while (n_success + n_outstanding < wu.target_nresults
               and len(results) < wu.max_total_results):
            self.db.insert_result(wu, created_at=self.now)
            results = self.db.results_for_wu(wu.id)
            n_outstanding += 1
            self.tracer.record(self.now, "transitioner.new_result", wu=wu.id)
        if n_success >= wu.min_quorum and wu.canonical_result_id is None:
            wu.need_validate = True

    def _validator_pass(self) -> None:
        for wu in list(self.db.workunits.values()):
            if wu.need_validate and wu.state is WorkunitState.ACTIVE:
                self._validate_wu(wu)

    def _validate_wu(self, wu: Workunit) -> None:
        wu.need_validate = False
        candidates = [
            r for r in self.db.results_for_wu(wu.id)
            if r.reported_success and r.validate_state is ValidateState.INIT
            and r.output is not None
        ]
        if wu.adaptive and wu.min_quorum == 1 and candidates:
            if not self._adaptive_accept(wu, candidates[0]):
                return  # escalated to the full quorum; revisit later
        groups: dict[str, list[Result]] = {}
        for r in candidates:
            groups.setdefault(r.output.digest, []).append(r)
        winner: list[Result] | None = None
        for digest, group in groups.items():
            if len(group) >= wu.min_quorum:
                winner = group
                break
        if winner is None:
            # No quorum yet.  If nothing is outstanding, ask for one more
            # replica (BOINC bumps target_nresults and lets the
            # transitioner create it).
            outstanding = any(
                r.state in (ResultState.UNSENT, ResultState.IN_PROGRESS)
                for r in self.db.results_for_wu(wu.id)
            )
            if not outstanding and wu.target_nresults < wu.max_total_results:
                wu.target_nresults += 1
                self._dirty_wus.add(wu.id)
                self.tracer.record(self.now, "validator.inconclusive",
                                   wu=wu.id)
            return
        canonical = min(winner, key=lambda r: r.id)
        self._finish_validation(wu, canonical, candidates)

    def _finish_validation(self, wu: Workunit, canonical: Result,
                           candidates: list[Result]) -> None:
        wu.canonical_result_id = canonical.id
        wu.state = WorkunitState.VALIDATED
        wu.validated_at = self.now
        for r in candidates:
            matches = r.output.digest == canonical.output.digest
            r.validate_state = ValidateState.VALID if matches else ValidateState.INVALID
            if matches and r.host_id is not None:
                self.db.hosts[r.host_id].validated_count += 1
        # Server-side abort: replicas that never left the server are now
        # redundant work — withdraw them (BOINC cancels unsent results).
        for r in self.db.results_for_wu(wu.id):
            if r.state is ResultState.UNSENT:
                r.state = ResultState.OVER
                r.outcome = ResultOutcome.NO_REPLY
                self.db._unsent.pop(r.id, None)
        if self.metrics is not None:
            self.metrics.counter("daemon.validator.validated_total").inc()
            self.metrics.histogram("daemon.validator.wu_latency_s").observe(
                self.now - wu.created_at)
        self.tracer.record(self.now, "validator.validated", wu=wu.id,
                           canonical=canonical.id, job=wu.mr_job,
                           kind=wu.mr_kind, index=wu.mr_index)

    def _adaptive_accept(self, wu: Workunit, res: Result) -> bool:
        """Adaptive path: accept a lone result, or escalate to the quorum.

        Returns True when the result was accepted as canonical.
        """
        host = self.db.hosts[res.host_id]
        trusted = host.validated_count >= ADAPTIVE_TRUST_THRESHOLD
        spot_check = False
        if self.rng is not None:
            spot_check = self.rng.random() < ADAPTIVE_SPOT_CHECK_RATE
        if trusted and not spot_check:
            self.tracer.record(self.now, "validator.adaptive_accept",
                               wu=wu.id, host=host.name,
                               reputation=host.validated_count)
            self._finish_validation(wu, res, [res])
            return True
        quorum = wu.adaptive_quorum or 2
        wu.min_quorum = quorum
        wu.target_nresults = max(wu.target_nresults, quorum)
        wu.adaptive = False  # now an ordinary quorum workunit
        self._dirty_wus.add(wu.id)
        self.tracer.record(self.now, "validator.adaptive_escalate",
                           wu=wu.id, host=host.name, spot_check=spot_check,
                           reputation=host.validated_count)
        return False

    def _assimilator_pass(self) -> None:
        # Snapshot: assimilation handlers may insert new workunits (the
        # JobTracker creates reduce WUs when the last map assimilates).
        for wu in list(self.db.workunits.values()):
            if wu.state is WorkunitState.VALIDATED:
                canonical = self.db.results[wu.canonical_result_id]
                if self.assimilate_handler is not None:
                    self.assimilate_handler(wu, canonical)
                wu.state = WorkunitState.ASSIMILATED
                wu.assimilated_at = self.now
                if self.metrics is not None:
                    self.metrics.counter(
                        "daemon.assimilator.assimilated_total").inc()
                self.tracer.record(self.now, "assimilator.done", wu=wu.id,
                                   job=wu.mr_job, kind=wu.mr_kind,
                                   index=wu.mr_index)

    # -- introspection ------------------------------------------------------------
    def valid_hosts_for_wu(self, wu_id: int) -> list[HostRecord]:
        """Hosts whose replica of *wu* validated (hold trustworthy output)."""
        out = []
        for r in self.db.results_for_wu(wu_id):
            if r.validate_state is ValidateState.VALID and r.host_id is not None:
                out.append(self.db.hosts[r.host_id])
        return out


class ProjectServer(SchedulerCore):
    """The simulated project server: :class:`SchedulerCore` on sim time.

    Adds the simulation transport around the shared state machine: the
    scheduler RPC gate (a :class:`SimSemaphore` modelling bounded RPC
    concurrency plus per-request processing delay), the
    :class:`~repro.boinc.dataserver.DataServer` over the flow network, the
    daemon polling processes, and the crash/stall fault hooks.
    """

    def __init__(self, sim: Simulator, net: Network, host: Host,
                 config: ServerConfig | None = None,
                 tracer: Tracer | None = None,
                 rng=None,
                 metrics: "MetricsRegistry | None" = None) -> None:
        """Stand up the server (database, daemons, RPC gate) on *host*."""
        super().__init__(config=config, tracer=tracer, rng=rng,
                         metrics=metrics)
        self.sim = sim
        self.net = net
        self.host = host
        self._clock = lambda: sim.now
        self.dataserver = DataServer(sim, net, host, tracer=self.tracer)
        self.publish_input = self.dataserver.publish
        self._rpc_slots = SimSemaphore(sim, RPC_CAPACITY, name="sched")
        self._daemons_started = False
        self._daemon_procs: dict[str, _t.Any] = {}
        #: Fault injection: daemon name -> sim time until which its passes
        #: are skipped (the process stays alive, it just does no work —
        #: a hung MySQL query, not a dead daemon).
        self._stalled_until: dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------------
    def start_daemons(self) -> None:
        """Spawn feeder/transitioner/validator/assimilator polling loops."""
        if self._daemons_started:
            raise RuntimeError("daemons already started")
        self._daemons_started = True
        for name, period in DAEMON_PERIOD_S.items():
            fn = getattr(self, f"_{name}_pass")
            self._daemon_procs[name] = self.sim.process(
                self._poll_loop(name, fn, period), name=name)

    def _poll_loop(self, name: str, fn: _t.Callable[[], None],
                   period: float) -> _t.Generator:
        while True:
            if self.sim.now >= self._stalled_until.get(name, 0.0):
                fn()
            yield period

    # -- fault hooks ----------------------------------------------------------
    def stall_daemon(self, name: str, duration: float) -> None:
        """Make daemon *name* skip its passes for *duration* seconds."""
        if name not in self._daemon_procs:
            raise KeyError(f"no such daemon {name!r}")
        self._stalled_until[name] = self.sim.now + duration
        self.tracer.record(self.sim.now, "server.daemon_stalled", daemon=name,
                           duration=duration)

    def crash(self) -> None:
        """Hard-stop the server: refuse RPCs, kill daemons, drop the feeder
        cache (shared memory is gone).  The database survives — BOINC state
        is durable in MySQL — so :meth:`restore` resumes where it left off.
        """
        if not self.available:
            return
        self.available = False
        self.dataserver.available = False
        for proc in self._daemon_procs.values():
            if proc.alive:
                proc.interrupt("server crash")
        self._daemon_procs.clear()
        self._stalled_until.clear()
        self._daemons_started = False
        self._feeder_visible = set()
        self.tracer.record(self.sim.now, "server.crash")

    def restore(self) -> None:
        """Bring a crashed server back: daemons restart, RPCs accepted."""
        if self.available:
            return
        self.available = True
        self.dataserver.available = True
        self.start_daemons()
        self.tracer.record(self.sim.now, "server.restore")

    # -- scheduler RPC (simulated transport) -----------------------------------
    def scheduler_rpc(self, request: SchedulerRequest) -> Event:
        """One scheduler RPC: an event that fires with the SchedulerReply
        after a jittered service delay in one of :data:`RPC_CAPACITY` slots, or
        fails with :class:`ServerUnavailable` while the server is down.  A
        caller that stops waiting (churn) does not cancel the server side.
        """
        reply = self.sim.event()
        if not self.available:
            if self.metrics is not None:
                self.metrics.counter("sched.refused_total").inc()
            return reply.fail(ServerUnavailable("scheduler is down"))
        grant = self._rpc_slots.acquire()

        def serve(_grant: Event | None = None) -> None:
            # A crash may land while this RPC is queued for a slot.
            if not self.available:
                self._rpc_slots.settle(grant)
                reply.fail(ServerUnavailable("scheduler crashed mid-request"))
                return
            delay = RPC_PROCESS_S
            if self.rng is not None:
                delay = jittered(self.rng, delay, 0.2)
            self.sim.schedule(delay, finish)

        def finish() -> None:
            self._rpc_slots.settle(grant)
            try:
                reply.trigger(self._handle_rpc_now(request))
            except Exception as exc:  # noqa: BLE001 - the caller's to see
                reply.fail(exc)

        if grant.triggered:  # a free slot: no grant wake-up
            serve()
        else:
            grant.add_callback(serve)
        return reply
