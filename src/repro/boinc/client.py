"""The BOINC client: pull-model work fetch, execution, upload, report.

Everything is client-initiated, as in BOINC and BOINC-MR ("communication
always starts from the client, never from the server").  The client RPCs
the scheduler when its work buffer runs low or when it has finished tasks
to report, subject to the *exponential backoff* gate: every RPC that asked
for work and got none doubles the deferral (capped, 600 s in the paper's
experiments), and — crucially for the paper's Figure 4 — a task finishing
*during* a backoff window cannot be reported until the window expires.

Task lifecycle: download inputs → wait for a CPU → compute → hand outputs
to the output policy (upload to the server, or serve to peers for BOINC-MR
map tasks) → mark ready-to-report → piggyback the report on the next
scheduler RPC.

Input fetching and output handling are strategy objects so that
:mod:`repro.core` can plug in the BOINC-MR behaviours without this module
knowing about MapReduce.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from ..net import (
    FlowError,
    Host,
    HostOffline,
    Network,
    TransferEndpoint,
    TransferFailed,
)
from ..sim import (
    Interrupted,
    Process,
    Simulator,
    Tracer,
    backoff_delay,
    jittered,
)
from ..net.transfer import SimSemaphore
from .dataserver import ChecksumMismatch, ServerUnavailable
from .model import FileRef, HostRecord, OutputData
from .server import Assignment, ProjectServer, ReportedResult, SchedulerRequest


@dataclasses.dataclass(slots=True)
class ClientConfig:
    """Client-side policy knobs (BOINC preferences + paper settings)."""

    ncpus: int = 1
    #: Low watermark: request more work when the estimated *remaining*
    #: queued work drops below this (BOINC's min work buffer).  Because
    #: this is typically larger than one task, clients poll the scheduler
    #: *while still computing* — the behaviour behind the paper's Fig. 4
    #: backoff pathology.
    work_buffer_min_s: float = 120.0
    #: High watermark: ask for (target - queued) seconds of work.
    work_buffer_target_s: float = 240.0
    #: Exponential backoff after a no-work reply: min, cap (paper: 600 s).
    backoff_min_s: float = 60.0
    backoff_max_s: float = 600.0
    #: Relative jitter applied to each backoff draw (BOINC randomises
    #: its deferrals; high jitter is what makes stragglers occasional
    #: rather than universal).
    backoff_jitter: float = 0.5
    #: §IV.C ablation: report finished tasks immediately, ignoring backoff.
    report_immediately: bool = False
    #: Relative jitter on task compute times (testbed hardware/IO noise;
    #: calibrated so per-phase variance matches the paper's spread).
    compute_jitter: float = 0.15
    #: Actual compute speed relative to the benchmark speed the server
    #: knows (BOINC estimates are routinely wrong for real applications;
    #: < 1 makes this host a genuine straggler the scheduler cannot see).
    speed_factor: float = 1.0
    #: Send output uploads as TCP-Nice-style background transfers that
    #: yield to foreground traffic (Section III.D future work).
    nice_uploads: bool = False
    #: Initial scheduler contact is staggered by up to this many seconds.
    initial_stagger_s: float = 5.0


#: Inter-client connection threshold (Section III.C), per direction.
MAX_PEER_CONNS = 6

#: Bounded retry for data-server transfers (503s, outages, corrupt
#: payloads).  The backoff between attempts reuses the paper's
#: exponential shape on its own, shorter, scale — curl retries are
#: minutes, scheduler deferrals are tens of minutes.
TRANSFER_RETRIES = 6
TRANSFER_BACKOFF_MIN_S = 15.0
TRANSFER_BACKOFF_MAX_S = 300.0


class TaskState:
    """Lifecycle states of a task on the client, download to report."""

    DOWNLOADING = "downloading"
    WAITING_CPU = "waiting_cpu"
    COMPUTING = "computing"
    UPLOADING = "uploading"
    READY_TO_REPORT = "ready_to_report"
    REPORTED = "reported"
    FAILED = "failed"


@dataclasses.dataclass(slots=True)
class ClientTask:
    """A result instance as the client sees it."""

    assignment: Assignment
    state: str = TaskState.DOWNLOADING
    output: OutputData | None = None
    started_compute_at: float | None = None
    finished_compute_at: float | None = None
    error: str | None = None


class InputFetcher(_t.Protocol):
    """Strategy: acquire a task's input data (a process body)."""

    def fetch(self, client: "Client", task: ClientTask) -> _t.Generator: ...


class OutputPolicy(_t.Protocol):
    """Strategy: dispose of a task's output data (a process body)."""

    def handle(self, client: "Client", task: ClientTask) -> _t.Generator: ...


class Executor(_t.Protocol):
    """Strategy: the application binary — produce output for a task."""

    def execute(self, client: "Client", task: ClientTask) -> OutputData: ...


def _transfer_with_retry(client: "Client", verb: str, name: str,
                         start: _t.Callable[[], _t.Any]) -> _t.Generator:
    """Process body: the data-server transfer *start()* opens, with bounded
    retry; *verb* (``download`` / ``upload``) names metric, trace and errors.

    Retries 503-style refusals (:class:`ServerUnavailable`), transfers cut
    by outages or partitions (:class:`FlowError`/:class:`HostOffline`), and
    — downloads only — corrupt payloads (:class:`ChecksumMismatch`: the
    checksum catches them and curl re-downloads).  :class:`FileMissing` is
    *not* retried: a file the server does not hold will not appear because
    we ask again.  Raises :class:`TransferFailed` when the budget runs out.
    """
    last = "no attempts made"
    for attempt in range(1, TRANSFER_RETRIES + 1):
        flow = None
        try:
            flow = start()
            yield flow.done
            if verb == "download" and flow.corrupted:
                raise ChecksumMismatch(
                    f"{name!r} failed checksum validation after download")
            return flow
        except (ServerUnavailable, HostOffline, FlowError,
                ChecksumMismatch) as exc:
            last = str(exc)
            if client.metrics is not None:
                client.metrics.counter(f"client.{verb}_retries_total").inc()
            client.tracer.record(client.sim.now, f"client.{verb}_retry",
                                 host=client.name, file=name, attempt=attempt,
                                 error=last)
            if attempt >= TRANSFER_RETRIES:
                break
        finally:
            # Interrupted (churn kill) can land on either yield: never
            # leave the flow consuming bandwidth unobserved.
            if flow is not None and not flow.finished:
                client.net.flownet.abort_flow(flow, reason=f"{verb} cancelled")
        yield backoff_delay(
            client.rng, TRANSFER_BACKOFF_MIN_S, TRANSFER_BACKOFF_MAX_S,
            attempt, client.config.backoff_jitter)
    raise TransferFailed(
        f"{verb} of {name!r} failed after {TRANSFER_RETRIES} "
        f"attempts: {last}")


def download_with_retry(client: "Client", name: str) -> _t.Generator:
    """Process body: fetch *name* from the data server with bounded retry."""
    return _transfer_with_retry(
        client, "download", name,
        lambda: client.server.dataserver.download(name, client.host))


def upload_with_retry(client: "Client", ref: FileRef,
                      background: bool = False) -> _t.Generator:
    """Process body: upload *ref* to the data server with bounded retry."""
    return _transfer_with_retry(
        client, "upload", ref.name,
        lambda: client.server.dataserver.upload(ref, client.host,
                                                background=background))


def join_transfers(client: "Client", procs: list[Process],
                   cancelled: str) -> _t.Generator:
    """Process body: wait for every transfer child process in *procs*.

    Cancelling the waiting task cascades to them (interrupt reason
    *cancelled*), so no flow or retry timer outlives the task.
    """
    try:
        if procs:
            yield client.sim.all_of(procs)
    finally:
        for proc in procs:
            if proc.alive:
                proc.interrupt(cancelled)


class ServerInputFetcher:
    """Default BOINC behaviour: download every input from the data server,
    as parallel child processes (concurrent flows, each with its own retry
    loop)."""

    def fetch(self, client: "Client", task: ClientTask) -> _t.Generator:
        """Download every input from the project data server, in parallel."""
        yield from join_transfers(client, [
            client.sim.process(download_with_retry(client, ref.name),
                               name=f"download:{client.name}:{ref.name}")
            for ref in task.assignment.wu.input_files
        ], "input fetch cancelled")


class ServerUploadPolicy:
    """Default BOINC behaviour: upload every output to the data server."""

    def handle(self, client: "Client", task: ClientTask) -> _t.Generator:
        """Upload every output file to the project data server."""
        assert task.output is not None
        nice = client.config.nice_uploads
        yield from join_transfers(client, [
            client.sim.process(upload_with_retry(client, ref, background=nice),
                               name=f"upload:{client.name}:{ref.name}")
            for ref in task.output.files
        ], "output upload cancelled")
        client.server.record_upload(task.assignment.result_id)


class GenericExecutor:
    """Deterministic placeholder app: digest depends only on the workunit."""

    def execute(self, client: "Client", task: ClientTask) -> OutputData:
        """Produce a generic output sized at 10% of the inputs."""
        wu = task.assignment.wu
        out_size = sum(ref.size for ref in wu.input_files) * 0.1
        digest = f"wu:{wu.id}"
        if client.corrupt_results:
            # Byzantine fault: a digest no honest replica reproduces.
            digest = f"corrupt:{client.name}:{digest}"
        return OutputData(
            digest=digest,
            files=(FileRef(name=f"{wu.app_name}_{wu.id}_out_{task.assignment.result_id}",
                           size=out_size),),
        )


class Client:
    """One volunteer's BOINC client."""

    def __init__(self, sim: Simulator, net: Network, server: ProjectServer,
                 host: Host, record: HostRecord,
                 config: ClientConfig | None = None,
                 rng: np.random.Generator | None = None,
                 tracer: Tracer | None = None,
                 input_fetcher: InputFetcher | None = None,
                 output_policy: OutputPolicy | None = None,
                 executor: Executor | None = None) -> None:
        """Wire a client to its simulator, network, server and policies."""
        self.sim = sim
        self.net = net
        self.server = server
        self.host = host
        self.record = record
        self.config = config or ClientConfig()
        self.rng = rng or np.random.default_rng(0)
        self.tracer = tracer if tracer is not None else server.tracer
        self.input_fetcher = input_fetcher or ServerInputFetcher()
        self.output_policy = output_policy or ServerUploadPolicy()
        self.executor = executor or GenericExecutor()
        self.name = host.name

        self.endpoint = TransferEndpoint(
            sim, host,
            max_upload_conns=MAX_PEER_CONNS,
            max_download_conns=MAX_PEER_CONNS)
        self.tasks: list[ClientTask] = []
        self._ready: list[ClientTask] = []
        self._cpu = SimSemaphore(sim, self.config.ncpus, name=f"{self.name}.cpu")
        self._backoff_count = 0
        self._next_allowed_rpc = 0.0
        #: Gate after a *failed* scheduler contact (server down, partition).
        #: Unlike ``_next_allowed_rpc``, even urgent reports respect it —
        #: there is no point hammering a server that refused us.
        self._comm_gate = 0.0
        self._rpc_failures = 0
        #: Names the poll loop would otherwise format on every pass.
        self._wake_name = f"{self.name}.wake"
        self._wake = sim.event(f"{self.name}.wake0")
        self._main_proc: Process | None = None
        self._task_procs: list[Process] = []
        #: True between :meth:`go_offline` and :meth:`come_online`.
        self.offline = False
        #: The BOINC-MR map-output store (``repro.core.interclient.PeerStore``)
        #: the deployment attaches to an MR-capable client.
        self.peer_store: _t.Any = None
        #: Fault injection: compute-time multiplier (> 1 = straggler).
        self.slowdown = 1.0
        #: Fault injection: every produced result digest is corrupted.
        self.corrupt_results = False
        #: Shared metrics registry (the server's, when it has one).
        self.metrics = server.metrics
        #: Diagnostics.
        self.rpcs = 0
        self.backoffs = 0
        self.rpc_retries = 0

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Launch the work-fetch/execute main loop (once)."""
        if self._main_proc is not None:
            raise RuntimeError(f"client {self.name} already started")
        self._main_proc = self.sim.process(self._main(), name=f"client:{self.name}")

    def go_offline(self) -> None:
        """The host leaves, abruptly: running tasks fail, the pull loop
        stops, and the link drops — which aborts in-flight transfers and
        takes away whatever peers were fetching from this host.  The one
        way a volunteer leaves (churn, a replayed trace, a test)."""
        for proc in self._task_procs:
            if proc.alive:
                proc.interrupt("host offline")
        self._task_procs = [p for p in self._task_procs if p.alive]
        self.offline = True
        if self._main_proc is not None and self._main_proc.alive:
            self._main_proc.interrupt("host offline")
        self._main_proc = None
        self.net.set_online(self.host, False)

    def come_online(self) -> None:
        """The host returns: link up and a fresh pull loop.  Nothing is
        re-registered and finished tasks not yet reported survived the
        outage (BOINC semantics: state is client-side)."""
        self.net.set_online(self.host, True)
        self.offline = False
        self.start()

    # -- main loop ------------------------------------------------------------------
    def _est_queued_s(self) -> float:
        """Estimated remaining compute seconds across queued/running tasks."""
        total = 0.0
        now = self.sim.now
        for t in self.tasks:
            if t.state in (TaskState.DOWNLOADING, TaskState.WAITING_CPU):
                total += t.assignment.est_runtime_s
            elif t.state == TaskState.COMPUTING:
                elapsed = now - (t.started_compute_at or now)
                total += max(0.0, t.assignment.est_runtime_s - elapsed)
        return total

    def _main(self) -> _t.Generator:
        # Desynchronise initial contact: real volunteers never start in
        # lockstep, and a deterministic stagger keeps runs reproducible.
        stagger = float(self.rng.uniform(0.0, self.config.initial_stagger_s))
        if stagger > 0:
            yield stagger
        sim, config = self.sim, self.config
        try:
            while True:
                queued_s = self._est_queued_s()
                want_work = queued_s < config.work_buffer_min_s
                have_reports = bool(self._ready)
                urgent = have_reports and config.report_immediately
                now = sim.now
                if (want_work or have_reports) and now >= self._comm_gate and (
                        now >= self._next_allowed_rpc or urgent):
                    yield from self._rpc_cycle(want_work, queued_s)
                    continue
                self._wake = wake = sim.event(self._wake_name)
                if want_work or have_reports:
                    wait_until = 0.0 if urgent else self._next_allowed_rpc
                    wait_until = max(wait_until, self._comm_gate)
                    delay = max(0.0, wait_until - now)
                    timer = sim.schedule_cancellable(
                        delay, wake.succeed_if_pending)
                    try:
                        yield wake
                    finally:  # woken early, or the host left
                        timer.cancel()
                else:
                    yield wake
        except Interrupted:
            return

    def _notify(self) -> None:
        self._wake.succeed_if_pending()

    def _rpc_cycle(self, want_work: bool, queued_s: float) -> _t.Generator:
        """One scheduler contact; *queued_s* is :meth:`_est_queued_s` now."""
        reports = [self._to_report(t) for t in self._ready]
        reporting, self._ready = self._ready, []
        work_req = 0.0
        if want_work:
            work_req = max(0.0, self.config.work_buffer_target_s - queued_s)
        request = SchedulerRequest(
            host_id=self.record.id,
            work_req_s=work_req,
            reports=reports,
        )
        self.rpcs += 1
        self.tracer.record(self.sim.now, "client.rpc_start", host=self.name,
                           work_req=work_req, n_reports=len(reports))
        try:
            if not self.host.online or not self.net.reachable(self.host,
                                                              self.server.host):
                raise ServerUnavailable(
                    f"project server unreachable from {self.name}")
            rtt = self.net.rtt(self.host, self.server.host)
            if rtt > 0:
                yield rtt
            reply = yield self.server.scheduler_rpc(request)
        except ServerUnavailable as exc:
            # Lost contact (crash fault or partition).  Put the reports
            # back for the next attempt and retry on the paper's
            # exponential backoff + jitter shape — BOINC clients poll a
            # dead project forever; nothing is abandoned.
            self._ready = reporting + self._ready
            self._rpc_failures += 1
            self.rpc_retries += 1
            if self.metrics is not None:
                self.metrics.counter("client.rpc_retries_total").inc()
            # Same shape as the no-work backoff, own counter.
            delay = self._backoff(self._rpc_failures)
            self._comm_gate = self.sim.now + delay
            self.tracer.record(self.sim.now, "client.rpc_failed",
                               host=self.name, error=str(exc),
                               failures=self._rpc_failures, delay=delay)
            return
        self._rpc_failures = 0
        self._comm_gate = 0.0
        now = self.sim.now
        self.tracer.record(now, "client.rpc_done", host=self.name,
                           n_assignments=len(reply.assignments),
                           no_work=reply.no_work)
        for task in reporting:
            task.state = TaskState.REPORTED
        for assignment in reply.assignments:
            task = ClientTask(assignment=assignment)
            self.tasks.append(task)
            proc = self.sim.process(self._run_task(task),
                                    name=f"task:{self.name}:{assignment.result_id}")
            self._task_procs.append(proc)
        if want_work and reply.no_work:
            self._backoff_count += 1
            self.backoffs += 1
            if self.metrics is not None:
                self.metrics.counter("client.backoff_total").inc()
            delay = self._backoff(self._backoff_count)
            self._next_allowed_rpc = now + delay
            self.tracer.record(now, "client.backoff", host=self.name,
                               count=self._backoff_count, delay=delay)
        else:
            self._backoff_count = 0
            self._next_allowed_rpc = now + reply.request_delay_s

    def _backoff(self, n: int) -> float:
        """Scheduler deferral after the *n*-th consecutive no-work reply
        (or failed contact), on this client's rng stream."""
        cfg = self.config
        return backoff_delay(self.rng, cfg.backoff_min_s, cfg.backoff_max_s,
                             n, cfg.backoff_jitter)

    def _to_report(self, task: ClientTask) -> ReportedResult:
        ok = task.error is None
        return ReportedResult(
            result_id=task.assignment.result_id,
            success=ok,
            output=task.output if ok else None,
            elapsed_s=(task.finished_compute_at or 0.0)
                      - (task.started_compute_at or 0.0),
        )

    # -- task lifecycle ------------------------------------------------------------
    def _run_task(self, task: ClientTask) -> _t.Generator:
        wu = task.assignment.wu
        fetched_at = self.sim.now
        try:
            task.state = TaskState.DOWNLOADING
            self.tracer.record(self.sim.now, "task.download_start",
                               host=self.name, result=task.assignment.result_id)
            yield from self.input_fetcher.fetch(self, task)

            task.state = TaskState.WAITING_CPU
            grant = self._cpu.acquire()
            try:
                # The yield is inside the try: a churn kill landing while
                # we are still *queued* for the CPU must withdraw the
                # pending grant (settle), or the slot is leaked forever.
                yield grant
                task.state = TaskState.COMPUTING
                task.started_compute_at = self.sim.now
                runtime = wu.flops / (self.record.flops
                                       * self.config.speed_factor)
                runtime = jittered(self.rng, runtime, self.config.compute_jitter)
                runtime *= self.slowdown  # straggler fault, 1.0 when healthy
                self.tracer.record(self.sim.now, "task.compute_start",
                                   host=self.name,
                                   result=task.assignment.result_id,
                                   runtime=runtime)
                yield runtime
                task.finished_compute_at = self.sim.now
                task.output = self.executor.execute(self, task)
            finally:
                self._cpu.settle(grant)

            task.state = TaskState.UPLOADING
            yield from self.output_policy.handle(self, task)
            task.state = TaskState.READY_TO_REPORT
            self._ready.append(task)
            self.tracer.record(self.sim.now, "task.ready", host=self.name,
                               result=task.assignment.result_id, wu=wu.id)
            if self.metrics is not None:
                self.metrics.counter("client.tasks_completed_total").inc()
                self.metrics.histogram("client.task_turnaround_s").observe(
                    self.sim.now - fetched_at)
                if task.started_compute_at is not None:
                    self.metrics.histogram("client.task_compute_s").observe(
                        (task.finished_compute_at or self.sim.now)
                        - task.started_compute_at)
            self._notify()
        except Interrupted:
            task.state = TaskState.FAILED
            task.error = "client shutdown"
        except Exception as exc:  # noqa: BLE001 - report as task failure
            task.state = TaskState.FAILED
            task.error = str(exc)
            self._ready.append(task)
            if self.metrics is not None:
                self.metrics.counter("client.tasks_failed_total").inc()
            self.tracer.record(self.sim.now, "task.failed", host=self.name,
                               result=task.assignment.result_id, error=str(exc))
            self._notify()


def make_client(sim: Simulator, net: Network, server: ProjectServer,
                name: str, flops: float = 1.0,
                link_spec=None, nat=None, supports_mr: bool = False,
                config: ClientConfig | None = None,
                rng: np.random.Generator | None = None,
                **strategies: _t.Any) -> Client:
    """Convenience factory: create host, register with server, build client."""
    from ..net import EMULAB_LINK

    host = net.add_host(name, link_spec or EMULAB_LINK, nat=nat)
    record = server.register_host(name, flops, supports_mr=supports_mr)
    return Client(sim, net, server, host, record, config=config, rng=rng,
                  **strategies)
