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

from .config import BoincMRConfig
from .costmodel import GREP, INVERTED_INDEX, WORD_COUNT, MapReduceCostModel
from .executor import MapReduceExecutor
from .interclient import PeerStore, ServedFile
from .job import JobPhase, MapReduceJob, MapReduceJobSpec
from .jobtracker import JobTracker
from .policies import ClientDirectory, MapReduceInputFetcher, MapReduceOutputPolicy
from .system import CloudSpec, VolunteerCloud

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
