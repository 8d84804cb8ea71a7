"""Client-side MapReduce application executor.

The paper's first prototype had no general MapReduce API; the word-count
behaviour was compiled into the application ("we inserted MapReduce
functionalities into the code").  :class:`MapReduceExecutor` plays that
application's role in the simulation: given a map or reduce assignment it
produces the deterministic output digest (what quorum validation compares)
and the output file set — one intermediate file per reduce partition for a
map task (keys hashed modulo the number of reducers), one final output
file for a reduce task.

Byzantine behaviour — "malicious users or errors during the computation"
(Section III.B) — is injected here: a corrupt execution yields a digest
unique to this host and attempt, so it can never accidentally match
another replica and pass the quorum.
"""

from __future__ import annotations

from ..boinc.client import Client, ClientTask
from ..boinc.model import FileRef, OutputData
from ..sim import RngRegistry
from .jobtracker import JobTracker


class MapReduceExecutor:
    """Produces outputs for ``map``/``reduce`` workunits of known jobs.

    A byzantine draw comes from the client's ``exec.NAME`` stream of
    *rngs*, made at the first draw: an honest volunteer never builds it.
    """

    __slots__ = ("jobtracker", "byzantine_rate", "rngs", "_corruptions")

    def __init__(self, jobtracker: JobTracker, rngs: RngRegistry,
                 byzantine_rate: float = 0.0) -> None:
        """Create an executor; *byzantine_rate* corrupts that fraction of runs."""
        if not 0.0 <= byzantine_rate <= 1.0:
            raise ValueError("byzantine_rate must be in [0, 1]")
        self.jobtracker = jobtracker
        self.byzantine_rate = byzantine_rate
        self.rngs = rngs
        self._corruptions = 0

    def execute(self, client: Client, task: ClientTask) -> OutputData:
        """Produce the output digest + file set for one map/reduce task."""
        wu = task.assignment.wu
        if wu.mr_job is None:
            raise ValueError(f"workunit {wu.id} is not a MapReduce task")
        spec = self.jobtracker.spec(wu.mr_job)
        if wu.mr_kind == "map":
            files = tuple(
                FileRef(spec.map_output_file(wu.mr_index, r),
                        spec.map_output_size())
                for r in range(spec.n_reducers)
            )
            digest = f"{spec.name}:map:{wu.mr_index}"
        elif wu.mr_kind == "reduce":
            files = (FileRef(spec.reduce_output_file(wu.mr_index),
                             spec.reduce_output_size()),)
            digest = f"{spec.name}:reduce:{wu.mr_index}"
        else:
            raise ValueError(f"unknown MapReduce kind {wu.mr_kind!r}")
        if client.corrupt_results:
            # Deterministic byzantine fault on this host: corrupt every
            # execution without touching the rng, so the draw sequence of
            # a fault-free run is left intact (trace determinism).
            self._corruptions += 1
            digest = f"corrupt:{client.name}:{self._corruptions}:{digest}"
        elif (self.byzantine_rate > 0
              and self.rngs.stream(f"exec.{client.name}").random()
              < self.byzantine_rate):
            self._corruptions += 1
            digest = f"corrupt:{client.name}:{self._corruptions}:{digest}"
        return OutputData(digest=digest, files=files)
