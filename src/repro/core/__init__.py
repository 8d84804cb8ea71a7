"""BOINC-MR: pull-model MapReduce over volunteer computing (the paper's core).

Public surface:

- :class:`VolunteerCloud` — build and run a complete deployment;
- :class:`CloudSpec` — its frozen construction spec
  (``VolunteerCloud.from_spec(spec)``);
- :class:`MapReduceJobSpec`, :class:`MapReduceJob`, :class:`JobPhase`;
- :class:`JobTracker` — the new server module;
- :class:`BoincMRConfig` — project-wide MR policy;
- cost models: :class:`MapReduceCostModel`, ``WORD_COUNT``, ``GREP``,
  ``INVERTED_INDEX``;
- client strategies: :class:`MapReduceExecutor`,
  :class:`MapReduceInputFetcher`, :class:`MapReduceOutputPolicy`,
  :class:`PeerStore`, :class:`ClientDirectory`.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ("BoincMRConfig",),
    ".costmodel": ("GREP", "INVERTED_INDEX", "WORD_COUNT",
                   "MapReduceCostModel"),
    ".executor": ("MapReduceExecutor",),
    ".interclient": ("PeerStore", "ServedFile"),
    ".job": ("JobPhase", "MapReduceJob", "MapReduceJobSpec"),
    ".jobtracker": ("JobTracker",),
    ".policies": ("ClientDirectory", "MapReduceInputFetcher",
                  "MapReduceOutputPolicy"),
    ".system": ("CloudSpec", "VolunteerCloud"),
})

__all__ = [
    "VolunteerCloud",
    "CloudSpec",
    "MapReduceJobSpec",
    "MapReduceJob",
    "JobPhase",
    "JobTracker",
    "BoincMRConfig",
    "MapReduceCostModel",
    "WORD_COUNT",
    "GREP",
    "INVERTED_INDEX",
    "MapReduceExecutor",
    "MapReduceInputFetcher",
    "MapReduceOutputPolicy",
    "PeerStore",
    "ServedFile",
    "ClientDirectory",
]
