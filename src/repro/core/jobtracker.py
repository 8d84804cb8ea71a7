"""The JobTracker: BOINC-MR's new server module (Section III.B).

The JobTracker owns MapReduce job state on the server: it creates map
workunits from a job spec, learns which clients hold validated map outputs
(via the assimilator hook), automatically creates reduce workunits once
every map is validated, and answers the scheduler's question "where can
this reduce task's inputs be downloaded from?" — appending mapper
addresses to reduce assignments for BOINC-MR clients, or nothing for
legacy clients (whose inputs come from the data server).

It drives any :class:`~repro.boinc.server.SchedulerCore` on the core's own
clock; a transport decides only where a task's bytes live, through
:meth:`JobTracker.map_input` / :meth:`JobTracker.reduce_input` (cost-model
sizes here, blobs in :class:`repro.gateway.jobs.GatewayJobTracker`).
"""

from __future__ import annotations

import typing as _t

from ..boinc.model import FileRef, HostRecord, Result, Workunit
from ..boinc.server import SchedulerCore
from .config import BoincMRConfig
from .job import JobPhase, MapReduceJob, MapReduceJobSpec

#: What a byte-location method returns: a task's input files and its flops.
TaskInput = tuple[tuple[FileRef, ...], float]


class JobTracker:
    """Coordinates MapReduce jobs over a :class:`SchedulerCore`."""

    def __init__(self, core: SchedulerCore,
                 event: _t.Callable[[str], _t.Any],
                 config: BoincMRConfig | None = None) -> None:
        """Attach the tracker to *core*; jobs are added via submit() and
        get their completion signals from the *event* factory."""
        self.core = core
        self.event = event
        self.config = config or BoincMRConfig()
        self.tracer = core.tracer
        self.metrics = core.metrics
        self.jobs: dict[str, MapReduceJob] = {}
        core.assimilate_handler = self._on_assimilated
        core.locate_reduce_inputs = self.locate_reduce_inputs
        core.on_wu_error = self._on_wu_error
        #: Optional callback run as the last reduce validates, just before
        #: ``job.done`` triggers; if it raises, the job fails instead.
        self.on_job_done: _t.Callable[[MapReduceJob], None] | None = None

    # -- where the bytes live (all a transport decides) --------------------------
    def map_input(self, spec: MapReduceJobSpec, i: int) -> TaskInput:
        """Input files and flops of map *i*."""
        return ((FileRef(spec.map_input_file(i), spec.chunk_size),),
                spec.map_flops)

    def reduce_input(self, spec: MapReduceJobSpec, r: int) -> TaskInput:
        """Input files and flops of reducer *r* (one partition per mapper).
        May raise: the job then fails before any reduce workunit exists."""
        size = spec.map_output_size()
        return (tuple(FileRef(spec.map_output_file(i, r), size)
                      for i in range(spec.n_maps)), spec.reduce_flops)

    # -- job submission -----------------------------------------------------------
    def submit(self, spec: MapReduceJobSpec) -> MapReduceJob:
        """Create the job's map workunits (``create_work`` + mapreduce tag)."""
        if spec.name in self.jobs:
            raise ValueError(f"job {spec.name!r} already submitted")
        job = MapReduceJob(spec, self.core.now, self.event)
        self.jobs[spec.name] = job
        for i in range(spec.n_maps):
            job.map_wu_ids[i] = self._submit_wu(
                spec, "map", i, self.map_input(spec, i), publish_inputs=True)
        if self.metrics is not None:
            self.metrics.counter("jobtracker.jobs_submitted_total").inc()
        self.tracer.record(self.core.now, "jobtracker.submitted", job=spec.name,
                           n_maps=spec.n_maps, n_reducers=spec.n_reducers)
        return job

    def _submit_wu(self, spec: MapReduceJobSpec, kind: str, index: int,
                   task_input: TaskInput, publish_inputs: bool) -> int:
        inputs, flops = task_input
        return self.core.submit_workunit(Workunit(
            id=self.core.db.new_wu_id(),
            app_name=f"{spec.app_name}_{kind}",
            input_files=inputs,
            flops=flops,
            target_nresults=spec.replication,
            min_quorum=spec.quorum,
            mr_job=spec.name,
            mr_kind=kind,
            mr_index=index,
            created_at=self.core.now,
        ), publish_inputs=publish_inputs).id

    # -- server hooks -----------------------------------------------------------
    def _on_assimilated(self, wu: Workunit, canonical: Result) -> None:
        """The assimilator contract.  Never raises: whatever goes wrong in
        here (a reduce input that is not where a report said, a failing
        job-done callback) fails the job, not the daemon pass."""
        job = self.jobs.get(wu.mr_job or "")
        if job is None or job.finished:
            return
        try:
            self._advance(job, wu, self.core.now)
        except Exception as exc:  # noqa: BLE001 — see docstring
            job.fail(f"{wu.mr_kind} {wu.mr_index} assimilated, then "
                     f"{type(exc).__name__}: {exc}", self.core.now)

    def _advance(self, job: MapReduceJob, wu: Workunit, now: float) -> None:
        if wu.mr_kind == "map":
            holders = [
                h.name for h in self.core.valid_hosts_for_wu(wu.id)
                if h.supports_mr
            ]
            job.record_map_validated(wu.mr_index, wu.id, holders, now)
            if self.metrics is not None:
                self.metrics.counter("jobtracker.maps_validated_total").inc()
            self.tracer.record(now, "jobtracker.map_done",
                               job=job.spec.name, index=wu.mr_index,
                               holders=len(holders))
            threshold = max(1, int(round(self.config.reduce_creation_fraction
                                         * job.spec.n_maps)))
            if job.maps_completed >= threshold and not job.reduce_wu_ids:
                self._create_reduce_wus(job)
        elif wu.mr_kind == "reduce":
            if (self.on_job_done is not None
                    and job.reduces_completed + 1 == job.spec.n_reducers):
                self.on_job_done(job)
            job.record_reduce_validated(wu.mr_index, now)
            if self.metrics is not None:
                self.metrics.counter("jobtracker.reduces_validated_total").inc()
            self.tracer.record(now, "jobtracker.reduce_done",
                               job=job.spec.name, index=wu.mr_index)
            if job.phase is JobPhase.DONE:
                if self.metrics is not None:
                    self.metrics.counter("jobtracker.jobs_done_total").inc()
                    self.metrics.histogram("jobtracker.job_makespan_s").observe(
                        job.makespan())
                self.tracer.record(now, "jobtracker.job_done",
                                   job=job.spec.name,
                                   makespan=job.makespan())

    def _on_wu_error(self, wu: Workunit) -> None:
        job = self.jobs.get(wu.mr_job or "")
        if job is not None:
            job.fail(f"{wu.mr_kind} workunit {wu.mr_index} errored: "
                     f"{wu.error_reason}", self.core.now)

    def _create_reduce_wus(self, job: MapReduceJob) -> None:
        """All maps validated: create the reduce workunits (Section III.B),
        all or nothing — every input is resolved before the first submit.

        Reduce inputs are the map-output partitions; they are *not*
        published on the data server here — they arrive there only if map
        clients upload them (``upload_map_outputs``).
        """
        spec = job.spec
        inputs = [self.reduce_input(spec, r) for r in range(spec.n_reducers)]
        job.reduce_created_at = self.core.now
        for r, task_input in enumerate(inputs):
            job.reduce_wu_ids[r] = self._submit_wu(
                spec, "reduce", r, task_input, publish_inputs=False)
        self.tracer.record(self.core.now, "jobtracker.reduce_created",
                           job=spec.name, n=spec.n_reducers)

    # -- scheduler hook ------------------------------------------------------------
    def locate_reduce_inputs(self, wu: Workunit,
                             host: HostRecord) -> dict[int, list[str]]:
        """Mapper addresses for a reduce assignment (empty for legacy path)."""
        job = self.jobs.get(wu.mr_job or "")
        if job is None:
            return {}
        if not (self.config.reduce_from_peers and host.supports_mr):
            return {}
        return {
            i: list(rec.holders)
            for i, rec in job.map_tasks.items()
            if rec.holders
        }

    def spec(self, job_name: str) -> MapReduceJobSpec:
        """Spec of a submitted job (KeyError if unknown)."""
        return self.jobs[job_name].spec
