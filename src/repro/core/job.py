"""MapReduce job specification and runtime state (BOINC-MR side).

A :class:`MapReduceJobSpec` captures what the paper's ``mr_jobtracker.xml``
configures: the number of mappers and reducers, replication/quorum, and —
via a :class:`~repro.core.costmodel.MapReduceCostModel` — the compute and
data volumes of each task.  :class:`MapReduceJob` is the server-side
runtime record the JobTracker maintains: per-phase progress, validated
mapper locations, and a completion event the harness can wait on.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from .costmodel import WORD_COUNT, MapReduceCostModel


class JobPhase(enum.Enum):
    """Coarse MapReduce job state as driven by the JobTracker."""

    MAP = "map"
    REDUCE = "reduce"
    DONE = "done"
    FAILED = "failed"


@dataclasses.dataclass(frozen=True, slots=True)
class MapReduceJobSpec:
    """Static description of one MapReduce job."""

    name: str
    n_maps: int
    n_reducers: int
    input_size: float = 1e9          # paper: fixed 1 GB initial input
    replication: int = 2             # results per workunit
    quorum: int = 2                  # identical outputs required
    cost: MapReduceCostModel = WORD_COUNT
    app_name: str = "wordcount"

    def __post_init__(self) -> None:
        if self.n_maps < 1 or self.n_reducers < 1:
            raise ValueError("n_maps and n_reducers must be >= 1")
        if self.input_size <= 0:
            raise ValueError("input_size must be positive")
        if self.quorum < 1 or self.replication < self.quorum:
            raise ValueError("need replication >= quorum >= 1")

    def require_hosts(self, n_hosts: int) -> None:
        """Raise ValueError when *n_hosts* volunteers, one replica each,
        are too few for any workunit to ever reach quorum."""
        if n_hosts < self.replication:
            raise ValueError(f"need at least {self.replication} nodes (the "
                             f"replication) to reach quorum, got {n_hosts}")

    # -- derived geometry ------------------------------------------------------
    @property
    def chunk_size(self) -> float:
        """Input bytes per map task (input split into #maps chunks)."""
        return self.input_size / self.n_maps

    @property
    def map_flops(self) -> float:
        """Compute cost of one map task, from the cost model."""
        return self.cost.map_flops(self.chunk_size)

    @property
    def reduce_flops(self) -> float:
        """Compute cost of one reduce task, from the cost model."""
        return self.cost.reduce_flops(self.chunk_size, self.n_maps,
                                      self.n_reducers)

    def map_output_size(self) -> float:
        """Bytes of one (mapper, reducer-partition) intermediate file."""
        return self.cost.map_output_bytes(self.chunk_size, self.n_reducers)

    def reduce_output_size(self) -> float:
        """Bytes one reduce task writes, from the cost model."""
        return self.cost.reduce_output_bytes(self.chunk_size, self.n_maps,
                                             self.n_reducers)

    # -- file naming conventions (shared by executor, fetcher, jobtracker) ----
    def map_input_file(self, map_index: int) -> str:
        """Canonical name of map *map_index*'s input chunk."""
        return f"{self.name}_map{map_index}_in"

    def map_output_file(self, map_index: int, reduce_index: int) -> str:
        """Canonical name of the (mapper, reducer) intermediate file."""
        return f"{self.name}_m{map_index}_r{reduce_index}"

    def reduce_output_file(self, reduce_index: int) -> str:
        """Canonical name of reduce *reduce_index*'s final output."""
        return f"{self.name}_out{reduce_index}"


class MapReduceJob:
    """Runtime state of a submitted job (owned by the JobTracker)."""

    def __init__(self, spec: MapReduceJobSpec, now: float,
                 event: _t.Callable[[str], _t.Any]) -> None:
        """Track *spec* through its phases from time *now* (starts in MAP).

        *event* builds the completion signal from a name: ``sim.event``,
        or anything else with its ``trigger(value)`` / ``fail(exc)`` verbs.
        """
        self.spec = spec
        self.phase = JobPhase.MAP
        #: Validated map index -> addresses (host names) of the clients
        #: holding its output, what a reduce assignment carries.
        self.map_tasks: dict[int, list[str]] = {}
        self.reduce_done: set[int] = set()
        self.reduce_wu_ids: dict[int, int] = {}   # reduce_index -> wu id
        self.submitted_at = now
        self.finished_at: float | None = None
        #: Fired when the job completes (all reduce outputs returned);
        #: failed, with the reason, when the job fails.
        self.done = event(f"{spec.name}.done")

    # -- progress ------------------------------------------------------------
    @property
    def maps_completed(self) -> int:
        """Validated map tasks so far."""
        return len(self.map_tasks)

    @property
    def reduces_completed(self) -> int:
        """Validated reduce tasks so far."""
        return len(self.reduce_done)

    @property
    def finished(self) -> bool:
        """True in either terminal phase (DONE or FAILED)."""
        return self.phase in (JobPhase.DONE, JobPhase.FAILED)

    def record_map_validated(self, map_index: int,
                             holders: _t.Sequence[str]) -> None:
        """A map WU passed validation; remember which hosts hold output.
        The last one moves the job to REDUCE."""
        if map_index in self.map_tasks:
            raise ValueError(f"map {map_index} already validated")
        self.map_tasks[map_index] = list(holders)
        if len(self.map_tasks) == self.spec.n_maps:
            self.phase = JobPhase.REDUCE

    def record_reduce_validated(self, reduce_index: int, now: float) -> None:
        """A reduce WU passed validation; flips to DONE on the last one."""
        if reduce_index in self.reduce_done:
            raise ValueError(f"reduce {reduce_index} already validated")
        self.reduce_done.add(reduce_index)
        if len(self.reduce_done) == self.spec.n_reducers:
            self.phase = JobPhase.DONE
            self.finished_at = now
            self.done.trigger(self)

    def fail(self, reason: str, now: float) -> None:
        """Mark the job FAILED with *reason* (no-op when already terminal)."""
        if self.finished:
            return
        self.phase = JobPhase.FAILED
        self.finished_at = now
        self.done.fail(RuntimeError(f"job {self.spec.name} failed: {reason}"))

    def makespan(self) -> float | None:
        """Submission to completion, if finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at
