"""The gateway wire protocol: endpoints, JSON schemas, checksums, errors.

Single source of truth for everything that crosses the live HTTP
boundary.  ``docs/protocol.md`` documents exactly the tables below and
``tests/test_docs.py`` validates every JSON example in that document
against :data:`SCHEMAS` via :func:`validate`, so the spec cannot drift
from the implementation.

Design rules (all inherited from BOINC's pull architecture):

- every request is client-initiated; the server never connects out;
- JSON request/response bodies, ``application/json``, UTF-8;
- file payloads are raw ``application/octet-stream`` with an
  ``X-Checksum: crc32:<8 hex digits>`` header (see :func:`checksum`);
- a refusing server answers 503 with a ``Retry-After`` header and the
  client backs off exponentially with jitter, exactly like the simulated
  client in :mod:`repro.boinc.client`;
- error bodies follow the ``Error`` schema with a code from
  :data:`ERROR_CODES`.
"""

from __future__ import annotations

import dataclasses
import re
import typing as _t
import zlib

from ..wire import compile_checks, dumps, loads  # loads: the gateway's decoder

#: Protocol version; served by ``GET /healthz`` so clients can refuse to
#: talk to an incompatible gateway.
PROTOCOL_VERSION = 1

#: Name of the checksum header on data downloads and uploads.
CHECKSUM_HEADER = "X-Checksum"


def checksum(data: bytes) -> str:
    """Wire checksum of *data*: ``crc32:<8 lowercase hex digits>``.

    CRC32 matches the stable-hash idiom used across the runtime
    (:func:`repro.runtime.api.default_partition`); it is an integrity
    check against truncated/corrupt transfers, not an authenticator.
    """
    return f"crc32:{zlib.crc32(data) & 0xFFFFFFFF:08x}"


@dataclasses.dataclass(frozen=True, slots=True)
class Endpoint:
    """One route in the gateway's HTTP surface."""

    method: str
    path: str
    request_schema: str | None
    reply_schema: str | None
    summary: str


#: Every route the gateway serves.  ``{name}``-style segments are path
#: parameters.  ``None`` schemas mean raw octet-stream payloads (data
#: plane) or empty request bodies.
ENDPOINTS: tuple[Endpoint, ...] = (
    Endpoint("POST", "/rpc/register", "RegisterRequest", "RegisterReply",
             "Register a volunteer host; idempotent per host name."),
    Endpoint("POST", "/rpc/scheduler", "WorkRequest", "WorkReply",
             "The scheduler RPC: piggybacked reports in, work out."),
    Endpoint("GET", "/data/{name}", None, None,
             "Download input blob bytes (X-Checksum header attached)."),
    Endpoint("POST", "/upload/{result_id}/{name}", None, "UploadReply",
             "Upload one output blob for a leased result; checksum "
             "verified, idempotent re-upload allowed."),
    Endpoint("POST", "/jobs", "JobRequest", "JobReply",
             "Submit a MapReduce job; the server generates the corpus "
             "from the spec so input bytes never cross the wire twice."),
    Endpoint("GET", "/jobs/{name}", None, "JobStatus",
             "Poll job progress and state."),
    Endpoint("GET", "/jobs/{name}/output", None, None,
             "Reclaim the merged job output payload (octet-stream)."),
    Endpoint("GET", "/status", None, "StatusReply",
             "Server-status page: database counts and metric counters."),
    Endpoint("GET", "/healthz", None, "HealthReply",
             "Liveness probe; also reports the protocol version."),
    Endpoint("GET", "/metrics", None, None,
             "Every metric instrument as Prometheus text exposition."),
)

#: Error code -> (HTTP status, meaning).  Every non-2xx reply carries an
#: ``Error`` body whose ``error`` field is one of these codes.
ERROR_CODES: dict[str, tuple[int, str]] = {
    "bad_request": (400, "malformed body or missing/invalid fields"),
    "unknown_host": (404, "host_id was never registered"),
    "not_found": (404, "no such blob, job, or route"),
    "method_not_allowed": (405, "route exists but not for this method"),
    "unknown_result": (409, "upload names a result id the server never "
                            "issued"),
    "upload_refused": (403, "upload of a blob its result may not write"),
    "not_ready": (409, "job output reclaimed before the job finished"),
    "checksum_mismatch": (422, "uploaded bytes do not match X-Checksum"),
    "unavailable": (503, "server refusing; honour Retry-After, then back "
                         "off exponentially with jitter"),
}

# -- schemas (in the table format of repro.wire) ------------------------------

_FieldSpec = tuple[tuple[str, ...], bool]

SCHEMAS: dict[str, dict[str, _FieldSpec]] = {
    "RegisterRequest": {
        "name": (("str",), True),
        "flops": (("number",), True),
        "supports_mr": (("bool",), False),
    },
    "RegisterReply": {
        "host_id": (("int",), True),
        "request_delay_s": (("number",), True),
    },
    "FileStat": {
        "name": (("str",), True),
        "size": (("number",), True),
    },
    "Report": {
        "result_id": (("int",), True),
        "success": (("bool",), True),
        "elapsed_s": (("number",), True),
        "digest": (("str", "null"), False),
        "output_files": (("list[FileStat]",), False),
    },
    "WorkRequest": {
        "host_id": (("int",), True),
        "work_req_s": (("number",), True),
        "reports": (("list[Report]",), False),
    },
    "Task": {
        "result_id": (("int",), True),
        "wu_id": (("int",), True),
        "app": (("str",), True),
        "job": (("str", "null"), True),
        "kind": (("str", "null"), True),
        "index": (("int", "null"), True),
        "n_maps": (("int", "null"), False),
        "n_reducers": (("int", "null"), False),
        "input_files": (("list[str]",), True),
        "est_runtime_s": (("number",), True),
        "deadline": (("number",), True),
    },
    "WorkReply": {
        "assignments": (("list[Task]",), True),
        "request_delay_s": (("number",), True),
        "no_work": (("bool",), True),
    },
    "UploadReply": {
        "received": (("bool",), True),
        "result_id": (("int",), True),
        "name": (("str",), True),
        "size": (("int",), True),
    },
    "CorpusSpec": {
        "size": (("int",), True),
        "seed": (("int",), True),
    },
    "JobRequest": {
        "name": (("str",), True),
        "app": (("str",), True),
        "n_maps": (("int",), True),
        "n_reducers": (("int",), True),
        "replication": (("int",), False),
        "quorum": (("int",), False),
        "corpus": (("CorpusSpec",), True),
    },
    "JobReply": {
        "name": (("str",), True),
        "n_maps": (("int",), True),
        "n_reducers": (("int",), True),
        "workunits": (("int",), True),
    },
    "JobStatus": {
        "name": (("str",), True),
        "state": (("str",), True),
        "maps_done": (("int",), True),
        "reduces_done": (("int",), True),
        "n_maps": (("int",), True),
        "n_reducers": (("int",), True),
        "assimilated": (("int",), True),
        "output_checksum": (("str", "null"), True),
    },
    "StatusReply": {
        "now": (("number",), True),
        "counts": (("dict",), True),
        "counters": (("dict",), True),
        "jobs": (("dict",), True),
    },
    "HealthReply": {
        "ok": (("bool",), True),
        "version": (("int",), True),
    },
    "Error": {
        "error": (("str",), True),
        "detail": (("str",), True),
        "retry_after_s": (("number",), False),
    },
}

#: Job lifecycle states as served in ``JobStatus.state``.
JOB_STATES = ("running", "done", "error")

#: ``JobRequest`` count -> the largest value the gateway takes.  A job is
#: split, stored and scheduled on the gateway's one event loop, so its
#: size is bounded like a body; each count must lie in ``1..bound``.
JOB_LIMITS: dict[str, int] = {"n_maps": 1024, "n_reducers": 256,
                              "replication": 8, "quorum": 8}

#: What a ``JobRequest.name`` may be.  The name is a path segment of
#: ``/jobs/{name}`` and the stem of every blob name of the job, so it
#: holds nothing a URL path would have to escape, nor a ``/``.
JOB_NAME = re.compile(r"[A-Za-z0-9._-]{1,128}")


#: The compiled checks, one per schema.
_CHECKS = compile_checks(SCHEMAS)


def validate(schema: str, payload: _t.Any, _where: str = "") -> list[str]:
    """Check *payload* against SCHEMAS[*schema*]; return a problem list.

    An empty list means the payload conforms.  Unknown fields, missing
    required fields, and type mismatches are all reported with a path so
    callers (and the docs tests) can print actionable failures.  Each
    schema is compiled once, at import, into one straight-line check.
    """
    return _CHECKS[schema](payload, _where or schema)


def error_body(code: str, detail: str,
               retry_after_s: float | None = None) -> tuple[int, bytes]:
    """Build an (http_status, body_bytes) pair for error *code*."""
    status, _ = ERROR_CODES[code]
    payload: dict[str, _t.Any] = {"error": code, "detail": detail}
    if retry_after_s is not None:
        payload["retry_after_s"] = retry_after_s
    return status, dumps(payload)
