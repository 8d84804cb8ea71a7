"""BOINC-MR: a reproduction of "Volunteer Cloud Computing: MapReduce over
the Internet" (Costa, Silva & Dahlin, IPDPS Workshops / PCGrid 2011).

Layers, bottom to top:

- :mod:`repro.sim` — deterministic discrete-event simulation kernel;
- :mod:`repro.net` — flow-level network, NAT traversal, peer transfers;
- :mod:`repro.boinc` — the BOINC substrate (server daemons + pull client);
- :mod:`repro.core` — BOINC-MR itself (JobTracker, inter-client transfers,
  replication/quorum validation of MapReduce outputs);
- :mod:`repro.runtime` — an executable MapReduce engine + canonical apps;
- :mod:`repro.volunteers`, :mod:`repro.workloads` — churn and input models;
- :mod:`repro.experiments`, :mod:`repro.analysis` — the paper's tables,
  figures, and metrics.

Quickstart::

    from repro.core import CloudSpec, VolunteerCloud, MapReduceJobSpec

    cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
    cloud.add_volunteers(20, mr=True)
    job = cloud.run_job(MapReduceJobSpec("wc", n_maps=20, n_reducers=5))
    print(job.makespan())
"""

from .lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core.job": ("MapReduceJob", "MapReduceJobSpec"),
    ".core.system": ("CloudSpec", "VolunteerCloud"),
})

__version__ = "1.0.0"

__all__ = ["VolunteerCloud", "CloudSpec", "MapReduceJobSpec", "MapReduceJob",
           "__version__"]
