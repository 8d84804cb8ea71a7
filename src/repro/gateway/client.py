"""Blocking gateway client + the real-process volunteer loop.

:class:`GatewayClient` is the live transport that swaps in for the
simulated comm gate: the same pull-protocol verbs the simulated client
performs against :class:`repro.boinc.server.ProjectServer` — register,
scheduler RPC with piggybacked reports, checksum-verified download,
upload — issued as real HTTP over ``http.client``.  Retry semantics
mirror the paper's client: a 503/connection failure triggers exponential
backoff with jitter, honouring the server's ``Retry-After`` floor.

:class:`Volunteer` is the BOINC-MR client on a real OS process, one RPC
cycle at a time: poll for work, download inputs, run the map/reduce task
with the *real* :class:`repro.runtime.engine.LocalRunner`, upload
outputs, and report at the next RPC — the report-at-next-RPC split the
simulator models is preserved on the wire.  :func:`run_volunteer` is its
main loop; the load fleet drives the same cycle on a schedule.
"""

from __future__ import annotations

import dataclasses
import http.client
import pickle
import random
import time
import typing as _t

from ..runtime.engine import LocalRunner
from ..sim.rng import backoff_delay
from . import protocol
from .jobs import (
    partition_blob_name,
    reduce_blob_name,
    resolve_app,
)


class GatewayError(RuntimeError):
    """A non-2xx gateway reply, carrying the wire error code."""

    def __init__(self, status: int, code: str, detail: str,
                 retry_after_s: float = 0.0) -> None:
        """An error reply with *status* and protocol error *code*."""
        super().__init__(f"{status} {code}: {detail}")
        self.status = status
        self.code = code
        self.detail = detail
        self.retry_after_s = retry_after_s

    @property
    def retryable(self) -> bool:
        """True for refusals worth retrying (503 unavailable)."""
        return self.status == 503


#: Live retry backoff (docs/protocol.md, "Retry semantics"): base and cap
#: of the doubling, and the relative jitter of each delay.
RETRY_BASE_S, RETRY_CAP_S, RETRY_JITTER = 0.05, 2.0, 0.5


def retry_delay(rng: random.Random, attempt: int,
                retry_after_s: float = 0.0) -> float:
    """Sleep before live retry *attempt* (0-based): the shared backoff
    formula on the live constants, never under the server's floor."""
    return max(retry_after_s, backoff_delay(
        rng, RETRY_BASE_S, RETRY_CAP_S, attempt + 1, RETRY_JITTER))


class GatewayClient:
    """Blocking HTTP client speaking :mod:`repro.gateway.protocol`."""

    def __init__(self, address: str, timeout_s: float = 10.0,
                 retries: int = 6,
                 rng: random.Random | None = None) -> None:
        """A client for the gateway at ``host:port`` *address*."""
        host, _, port = address.partition(":")
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self.retries = retries
        self.rng = rng or random.Random()
        self._conn: http.client.HTTPConnection | None = None
        #: Diagnostics: total retries performed across all requests.
        self.retry_count = 0

    # -- transport -------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        return self._conn

    def close(self) -> None:
        """Drop the persistent connection (reopened on next request)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _once(self, method: str, path: str, body: bytes,
              headers: dict[str, str]) -> tuple[int, dict[str, str], bytes]:
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            return resp.status, {k.lower(): v for k, v in
                                 resp.getheaders()}, payload
        except (http.client.HTTPException, ConnectionError, OSError):
            self.close()
            raise

    def request(self, method: str, path: str, body: bytes = b"",
                headers: dict[str, str] | None = None
                ) -> tuple[dict[str, str], bytes]:
        """One request with retry-on-refusal; returns (headers, body).

        Retries connection failures and 503 refusals with exponential
        backoff + jitter (honouring ``Retry-After``); any other non-2xx
        raises :class:`GatewayError` immediately.
        """
        headers = dict(headers or {})
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            floor_s = 0.0
            try:
                status, resp_headers, payload = self._once(
                    method, path, body, headers)
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                last = exc
            else:
                if status < 400:
                    return resp_headers, payload
                last = err = self._decode_error(status, resp_headers, payload)
                if not err.retryable or attempt == self.retries:
                    raise err
                floor_s = err.retry_after_s
            if attempt == self.retries:
                break  # nothing left to wait for
            self.retry_count += 1
            time.sleep(retry_delay(self.rng, attempt, floor_s))
        raise GatewayError(503, "unavailable",
                           f"retries exhausted: {last}")

    @staticmethod
    def _decode_error(status: int, headers: dict[str, str],
                      payload: bytes) -> GatewayError:
        try:
            doc = protocol.loads(payload)
            return GatewayError(status, doc.get("error", "unknown"),
                                doc.get("detail", ""),
                                float(doc.get("retry_after_s", 0.0)))
        except (ValueError, AttributeError):
            return GatewayError(status, "unknown",
                                payload[:200].decode("latin-1"))

    def _json(self, method: str, path: str,
              payload: _t.Any = None) -> _t.Any:
        body = protocol.dumps(payload) if payload is not None else b""
        _, data = self.request(method, path, body,
                               {"Content-Type": "application/json"})
        return protocol.loads(data)

    # -- protocol verbs --------------------------------------------------------
    def health(self) -> dict:
        """``GET /healthz``."""
        return self._json("GET", "/healthz")

    def status(self) -> dict:
        """``GET /status``."""
        return self._json("GET", "/status")

    def register(self, name: str, flops: float = 1e9,
                 supports_mr: bool = True) -> int:
        """Register (idempotently) and return the host id."""
        reply = self._json("POST", "/rpc/register", {
            "name": name, "flops": flops, "supports_mr": supports_mr})
        return reply["host_id"]

    def scheduler_rpc(self, host_id: int, work_req_s: float,
                      reports: list[dict] | None = None) -> dict:
        """One scheduler RPC: piggyback *reports*, ask for work."""
        return self._json("POST", "/rpc/scheduler", {
            "host_id": host_id, "work_req_s": work_req_s,
            "reports": reports or []})

    def _fetch(self, path: str, what: str) -> bytes:
        headers, data = self.request("GET", path)
        claimed = headers.get(protocol.CHECKSUM_HEADER.lower())
        if claimed is not None and claimed != protocol.checksum(data):
            raise GatewayError(200, "checksum_mismatch",
                               f"{what} corrupt in transit")
        return data

    def download(self, name: str) -> bytes:
        """Fetch blob *name*, verifying the ``X-Checksum`` header."""
        return self._fetch(f"/data/{name}", f"download {name!r}")

    def upload(self, result_id: int, name: str, data: bytes) -> dict:
        """Upload one output blob for a leased result."""
        _, payload = self.request(
            "POST", f"/upload/{result_id}/{name}", data,
            {"Content-Type": "application/octet-stream",
             protocol.CHECKSUM_HEADER: protocol.checksum(data)})
        return protocol.loads(payload)

    def submit_job(self, name: str, app: str, corpus_size: int,
                   corpus_seed: int, n_maps: int, n_reducers: int,
                   replication: int = 1, quorum: int = 1) -> dict:
        """``POST /jobs`` with a server-generated corpus spec."""
        return self._json("POST", "/jobs", {
            "name": name, "app": app, "n_maps": n_maps,
            "n_reducers": n_reducers, "replication": replication,
            "quorum": quorum,
            "corpus": {"size": corpus_size, "seed": corpus_seed}})

    def job_status(self, name: str) -> dict:
        """``GET /jobs/{name}``."""
        return self._json("GET", f"/jobs/{name}")

    def job_output(self, name: str) -> bytes:
        """Reclaim the merged output payload of a finished job."""
        return self._fetch(f"/jobs/{name}/output", f"output of {name!r}")


def execute_task(client: GatewayClient, task: dict) -> dict:
    """Run one wire ``Task`` with the real engine; upload its outputs.

    Returns the wire ``Report`` to piggyback on the next scheduler RPC.
    The digest convention is shared with the validator: CRC32 over the
    concatenated output blobs in partition order, so byte-identical
    replica outputs — guaranteed by the deterministic engine — produce
    equal digests.
    """
    t0 = time.perf_counter()
    job, kind, index = task["job"], task["kind"], task["index"]
    runner = LocalRunner(resolve_app(task["app"]),
                         n_maps=max(task["n_maps"] or 1, 1),
                         n_reducers=max(task["n_reducers"] or 1, 1))
    outputs: list[tuple[str, bytes]] = []
    if kind == "map":
        chunk = client.download(task["input_files"][0])
        _report, blobs = runner.run_map_task(index, chunk)
        outputs = [(partition_blob_name(job, index, r), blobs[r])
                   for r in sorted(blobs)]
    elif kind == "reduce":
        blobs = [client.download(name) for name in task["input_files"]]
        _report, output = runner.run_reduce_task(index, blobs)
        outputs = [(reduce_blob_name(job, index), pickle.dumps(output))]
    else:
        raise ValueError(f"task {task['result_id']} has no MR kind")
    for name, data in outputs:
        client.upload(task["result_id"], name, data)
    digest = protocol.checksum(b"".join(data for _, data in outputs))
    return {
        "result_id": task["result_id"], "success": True,
        "elapsed_s": time.perf_counter() - t0, "digest": digest,
        "output_files": [{"name": name, "size": len(data)}
                         for name, data in outputs],
    }


@dataclasses.dataclass(slots=True)
class VolunteerStats:
    """What one :func:`run_volunteer` session did."""

    tasks_done: int = 0
    tasks_failed: int = 0
    rpcs: int = 0
    idle_polls: int = 0


class Volunteer:
    """One registered host on the live wire: its client, its host id and
    the reports waiting for its next scheduler RPC.

    :meth:`cycle` is the pull protocol's client side written once;
    :func:`run_volunteer` and the load fleet
    (:mod:`repro.gateway.loadgen`) only decide *when* to call it.
    """

    def __init__(self, client: GatewayClient, name: str,
                 flops: float = 1e9) -> None:
        """Register *name* (idempotently) through *client*."""
        self.client = client
        self.host_id = client.register(name, flops=flops, supports_mr=True)
        self.reports: list[dict] = []
        self.stats = VolunteerStats()
        #: Wall-clock seconds the last scheduler RPC took, retries included.
        self.rpc_s = 0.0

    def cycle(self) -> dict:
        """One scheduler RPC carrying the pending reports, then execute
        what it assigned, queueing those reports for the next cycle.
        Returns the ``WorkReply``."""
        t0 = time.perf_counter()
        reply = self.client.scheduler_rpc(self.host_id, work_req_s=1.0,
                                          reports=self.reports)
        self.rpc_s = time.perf_counter() - t0
        self.reports = []
        self.stats.rpcs += 1
        for task in reply["assignments"]:
            try:
                self.reports.append(execute_task(self.client, task))
                self.stats.tasks_done += 1
            except GatewayError:
                self.stats.tasks_failed += 1
                self.reports.append({"result_id": task["result_id"],
                                     "success": False, "elapsed_s": 0.0})
        return reply


def run_volunteer(address: str, name: str, flops: float = 1e9,
                  poll_s: float = 0.02, idle_limit: int = 100,
                  stop: _t.Callable[[], bool] | None = None
                  ) -> VolunteerStats:
    """The BOINC-MR client loop against a live gateway, to completion.

    Polls the scheduler, executes assignments with the real engine, and
    reports at the next RPC.  Returns after *idle_limit* consecutive
    no-work polls (with no reports pending), or when *stop* returns True.
    """
    client = GatewayClient(address)
    volunteer = Volunteer(client, name, flops)
    idle = 0
    while stop is None or not stop():
        reply = volunteer.cycle()
        if volunteer.reports:
            idle = 0
            continue  # report promptly; more work may be chained
        idle += 1
        volunteer.stats.idle_polls += 1
        if idle >= idle_limit:
            break
        time.sleep(max(reply["request_delay_s"], poll_s))
    client.close()
    return volunteer.stats
