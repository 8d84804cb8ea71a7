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
- :mod:`repro.gateway.jobs` — the shared
  :class:`~repro.core.jobtracker.JobTracker` over real bytes;
- :mod:`repro.gateway.files` — :class:`BlobStore`, real bytes behind
  the shared :class:`~repro.boinc.dataserver.FileCatalogue` seam;
- :mod:`repro.gateway.loadgen` — the 500-client replay harness behind
  ``repro loadgen`` and the ``BENCH_gateway.json`` p99 gate.
"""

from .client import (
    GatewayClient,
    GatewayError,
    VolunteerStats,
    execute_task,
    run_volunteer,
)
from .files import BlobStore
from .jobs import APP_REGISTRY, GatewayJobTracker
from .loadgen import LoadConfig, LoadReport, run_loadgen
from .protocol import (
    ENDPOINTS,
    ERROR_CODES,
    PROTOCOL_VERSION,
    SCHEMAS,
    checksum,
    validate,
)
from .server import (
    GatewayConfig,
    GatewayHandle,
    GatewayServer,
)

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
