"""Live deployment mode: the asyncio HTTP gateway for real volunteers.

The paper's system is MapReduce served to volunteers *over the
Internet*; this package is that serving path, live.  The same
:class:`repro.boinc.server.SchedulerCore` state machine the simulator
drives on virtual time answers real scheduler RPCs on wall-clock time
behind a stdlib-``asyncio`` HTTP front end, so replication, quorum
validation, deadlines, and the report-at-next-RPC split are shared with
the simulation rather than re-implemented.

- :mod:`repro.gateway.protocol` — the wire protocol (endpoints, JSON
  schemas, error codes, checksums), documented in ``docs/protocol.md``;
- :mod:`repro.gateway.server` — :class:`GatewayServer`, the asyncio
  listener + daemon tick, and :class:`GatewayHandle` for in-process use
  (an ``address`` for clients to dial, the running ``server`` and
  ``close()``);
- :mod:`repro.gateway.client` — :class:`GatewayClient` (the one HTTP
  client, blocking, with the paper's backoff) and :func:`run_volunteer`,
  the real-OS-process volunteer loop running the real engine;
- :mod:`repro.gateway.tasks` — what both sides agree a task is: the
  wire app names, the blob names and the job output encoding;
- :mod:`repro.gateway.jobs` — the shared
  :class:`~repro.core.jobtracker.JobTracker` over real bytes, loaded by
  a built :class:`GatewayServer`;
- :mod:`repro.gateway.files` — :class:`BlobStore`, real bytes behind
  the shared :class:`~repro.boinc.dataserver.FileCatalogue` seam;
- :mod:`repro.gateway.loadgen` — the 500-client replay harness behind
  ``repro loadgen`` and the ``BENCH_gateway.json`` p99 gate.

Each name this package exports resolves from its module on first use
(:mod:`repro.lazy`), so a volunteer imports none of the server side.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".client": ("GatewayClient", "GatewayError", "VolunteerStats",
                "execute_task", "run_volunteer"),
    ".files": ("BlobStore",),
    ".jobs": ("GatewayJobTracker",),
    ".loadgen": ("LoadConfig", "LoadReport", "run_loadgen"),
    ".protocol": ("ENDPOINTS", "ERROR_CODES", "PROTOCOL_VERSION", "SCHEMAS",
                  "checksum", "validate"),
    ".server": ("GatewayConfig", "GatewayHandle", "GatewayServer"),
    ".tasks": ("APP_REGISTRY",),
})

__all__ = [
    "APP_REGISTRY",
    "BlobStore",
    "ENDPOINTS",
    "ERROR_CODES",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "GatewayHandle",
    "GatewayJobTracker",
    "GatewayServer",
    "LoadConfig",
    "LoadReport",
    "PROTOCOL_VERSION",
    "SCHEMAS",
    "VolunteerStats",
    "checksum",
    "execute_task",
    "run_loadgen",
    "run_volunteer",
    "validate",
]
