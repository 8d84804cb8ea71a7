"""Live MapReduce jobs: the shared JobTracker over real bytes.

:class:`GatewayJobTracker` *is* :class:`repro.core.jobtracker.JobTracker`
— the same barrier, job record and ``jobtracker.*`` trace the simulator
runs — told where the bytes live: map inputs are the chunk blobs a
submission splits the corpus into, reduce inputs the partition blobs
volunteers uploaded.  On top it adds only what the wire needs: submission
from bytes or a ``JobRequest``, per-task wire parameters, the merged
output payload sealed as the last reduce validates, and ``JobStatus``.

Determinism carries the replication story: :class:`~repro.runtime.engine.
LocalRunner` tasks are bit-reproducible, so honest replicas of the same
task upload byte-identical blobs and report equal digests, which is
exactly what the shared validator's digest comparison needs.  Only the
canonical result's staged blobs are published, as it is assimilated.
"""

from __future__ import annotations

import pickle
import threading
import typing as _t

from ..boinc.dataserver import FileMissing
from ..boinc.model import Result, Workunit
from ..boinc.server import SchedulerCore
from ..core.job import JobPhase, MapReduceJob, MapReduceJobSpec
from ..core.jobtracker import JobTracker, TaskInput
from ..runtime.api import MapReduceApp
from ..runtime.apps import InvertedIndex, MatchCount, WordCount
from ..runtime.splitter import split_text
from ..workloads import generate_corpus
from .files import BlobStore
from .protocol import checksum

#: Apps submittable by name over the wire (``JobRequest.app``).  A wire
#: job carries no app parameters, so ``matchcount`` counts a fixed pattern:
#: the words ending in ``a``, one in five of the consonant-vowel words
#: :func:`~repro.workloads.generate_corpus` draws.
APP_REGISTRY: dict[str, _t.Callable[[], MapReduceApp]] = {
    "wordcount": WordCount,
    "invindex": InvertedIndex,
    "matchcount": lambda: MatchCount(rb"\w+a\b"),
}


def resolve_app(name: str) -> MapReduceApp:
    """Instantiate a registered app by wire name (KeyError when unknown)."""
    return APP_REGISTRY[name]()


def chunk_blob_name(job: str, map_index: int) -> str:
    """Blob name of one map input chunk."""
    return f"{job}.m{map_index}.in"


def partition_blob_name(job: str, map_index: int, reduce_index: int) -> str:
    """Blob name of one map-output partition (map i, reducer r)."""
    return f"{job}.m{map_index}.p{reduce_index}"


def reduce_blob_name(job: str, reduce_index: int) -> str:
    """Blob name of one reducer's output."""
    return f"{job}.out{reduce_index}"


def canonical_payload(output: dict) -> bytes:
    """Deterministic byte encoding of a merged job output dict.

    Keys are sorted by ``repr`` (the engine's stable ordering), so the
    same logical output always pickles to the same bytes — this is what
    the byte-equivalence gate in the load harness compares.
    """
    return pickle.dumps(sorted(output.items(), key=lambda kv: repr(kv[0])))


def decode_payload(payload: bytes) -> dict:
    """Inverse of :func:`canonical_payload`."""
    return dict(pickle.loads(payload))


class JobSignal(threading.Event):
    """A ``threading.Event`` with the simulator :class:`~repro.sim.Event`'s
    ``trigger`` / ``fail`` verbs: what a live job's completion signals are,
    so other threads can block on them."""

    #: The failure the signal fired with, if it was :meth:`fail`.
    exception: BaseException | None = None

    def trigger(self, value: _t.Any = None) -> None:
        """Fire successfully."""
        self.set()

    def fail(self, exc: BaseException) -> None:
        """Fire with the failure *exc* for waiters to read."""
        self.exception = exc
        self.set()


#: ``JobStatus.state`` for each phase of the shared job record.
WIRE_STATE = {JobPhase.MAP: "running", JobPhase.REDUCE: "running",
              JobPhase.DONE: "done", JobPhase.FAILED: "error"}


class GatewayJobTracker(JobTracker):
    """The shared JobTracker with its bytes in a :class:`BlobStore`."""

    def __init__(self, core: SchedulerCore, store: BlobStore) -> None:
        """Attach to *core*'s hooks; task bytes live in *store*."""
        super().__init__(core, lambda _name: JobSignal())
        self.store = store
        #: Job name -> merged output payload, set just before ``job.done``.
        self.outputs: dict[str, bytes] = {}
        self.on_job_done = self._seal

    # -- where the bytes live --------------------------------------------------
    def map_input(self, spec: MapReduceJobSpec, i: int) -> TaskInput:
        """Map *i*'s chunk blob; flops are its length in bytes."""
        ref = self.store.files[chunk_blob_name(spec.name, i)]
        return (ref,), max(ref.size, 1.0)

    def reduce_input(self, spec: MapReduceJobSpec, r: int) -> TaskInput:
        """Reducer *r*'s uploaded partition blobs (:class:`FileMissing` if
        one never was); flops are their bytes."""
        refs = []
        for i in range(spec.n_maps):
            name = partition_blob_name(spec.name, i, r)
            if not self.store.has(name):
                raise FileMissing(f"partition blob {name} was never uploaded")
            refs.append(self.store.files[name])
        return tuple(refs), max(sum(f.size for f in refs), 1.0)

    # -- submission ------------------------------------------------------------
    def submit_data(self, name: str, app_name: str, data: bytes, n_maps: int,
                    n_reducers: int, replication: int = 1,
                    quorum: int = 1) -> MapReduceJob:
        """Split *data*, publish chunk blobs, submit the map workunits."""
        if name in self.jobs:
            raise ValueError(f"job {name!r} already submitted")
        if app_name not in APP_REGISTRY:
            raise ValueError(f"unknown app {app_name!r}")
        spec = MapReduceJobSpec(name, n_maps, n_reducers,
                                input_size=max(len(data), 1.0),
                                replication=replication, quorum=quorum,
                                app_name=app_name)
        for i, chunk in enumerate(split_text(data, n_maps)):
            self.store.put(chunk_blob_name(name, i), chunk)
        return self.submit(spec)

    def submit_spec(self, spec: dict) -> MapReduceJob:
        """Submit from a validated wire ``JobRequest`` payload.

        The corpus is generated server-side from ``(size, seed)`` — the
        same :func:`repro.workloads.generate_corpus` call the load
        harness uses for its oracle, so both sides agree on the bytes
        without shipping them.
        """
        data = generate_corpus(spec["corpus"]["size"],
                               seed=spec["corpus"]["seed"])
        return self.submit_data(spec["name"], spec["app"], data,
                                spec["n_maps"], spec["n_reducers"],
                                replication=spec.get("replication", 1),
                                quorum=spec.get("quorum", 1))

    # -- what the wire reads ---------------------------------------------------
    def task_params(self, wu: Workunit) -> dict:
        """Per-assignment MR parameters serialised into a wire ``Task``."""
        job = self.jobs.get(wu.mr_job or "")
        spec = None if job is None else job.spec
        return {
            "app": wu.app_name if spec is None else spec.app_name,
            "job": wu.mr_job,
            "kind": wu.mr_kind,
            "index": wu.mr_index,
            "n_maps": None if spec is None else spec.n_maps,
            "n_reducers": None if spec is None else spec.n_reducers,
        }

    def output_names(self, wu: Workunit) -> tuple[str, ...]:
        """Blobs a replica of *wu* may upload (map i: its partitions)."""
        job = self.jobs.get(wu.mr_job or "")
        if job is None:
            return ()
        if wu.mr_kind == "reduce":
            return (reduce_blob_name(job.spec.name, wu.mr_index),)
        return tuple(partition_blob_name(job.spec.name, wu.mr_index, r)
                     for r in range(job.spec.n_reducers))

    def _on_assimilated(self, wu: Workunit, canonical: Result) -> None:
        """Publish the canonical result's staged blobs, drop the rest."""
        self._settle(wu, canonical.id)
        super()._on_assimilated(wu, canonical)

    def _on_wu_error(self, wu: Workunit) -> None:
        """Drop every replica's staged blobs, then fail the job."""
        self._settle(wu, None)
        super()._on_wu_error(wu)

    def _settle(self, wu: Workunit, canonical: int | None) -> None:
        self.store.settle(self.output_names(wu), [
            res.id for res in self.core.db.results_for_wu(wu.id)], canonical)

    def _seal(self, job: MapReduceJob) -> None:
        """Last reduce validated: merge the partition outputs.  The blobs
        are whatever volunteers uploaded, so this may raise anything; the
        shared tracker turns that into a failed job."""
        merged: dict = {}
        for r in range(job.spec.n_reducers):
            blob = self.store.fetch(reduce_blob_name(job.spec.name, r))
            merged.update(pickle.loads(blob))
        self.outputs[job.spec.name] = canonical_payload(merged)

    def status(self, job: MapReduceJob) -> dict:
        """The wire ``JobStatus`` payload for *job*."""
        spec, payload = job.spec, self.outputs.get(job.spec.name)
        return {
            "name": spec.name, "state": WIRE_STATE[job.phase],
            "maps_done": job.maps_completed, "n_maps": spec.n_maps,
            "reduces_done": job.reduces_completed,
            "n_reducers": spec.n_reducers,
            "assimilated": job.maps_completed + job.reduces_completed,
            "output_checksum": None if payload is None else checksum(payload),
        }
