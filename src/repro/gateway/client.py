"""Blocking gateway client + the real-process volunteer loop.

:class:`GatewayClient` is the live transport that swaps in for the
simulated comm gate: the same pull-protocol verbs the simulated client
performs against :class:`repro.boinc.server.ProjectServer` — register,
scheduler RPC with piggybacked reports, checksum-verified download,
upload — issued as HTTP/1.1 on one keep-alive TCP socket that the client
frames itself: each request goes out in one ``sendall``, each reply is
read off a per-connection buffer (what it accepts: docs/protocol.md,
"Transport conventions").  Retry semantics mirror the paper's client: a
503/connection failure triggers exponential backoff with jitter,
honouring the server's ``Retry-After`` floor.

:class:`Volunteer` is the BOINC-MR client on a real OS process, one RPC
cycle at a time: poll for work, download inputs, run the map/reduce task
with the *real* :class:`repro.runtime.engine.LocalRunner`, upload
outputs, and report at the next RPC — the report-at-next-RPC split the
simulator models is preserved on the wire.  :func:`run_volunteer` is its
main loop; the load fleet drives the same cycle on a schedule.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import re
import socket
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


#: ``http.client``'s bounds on a reply: bytes in one line, its line end
#: included, and header lines (its 100, the blank line after them counted).
_MAX_LINE, _MAX_HEADER_LINES = 65536, 99
_RECV_BYTES = 65536
#: A method or request target: visible ASCII only, so it cannot break
#: the request line.  A header name as ``http.client`` takes one, and a
#: header value that cannot end its line early.
_TOKEN = re.compile(r"[\x21-\x7e]+")
_FIELD_NAME = re.compile(r"[^:\s][^:\r\n\x00]*", re.ASCII)
_LINE_BREAK = re.compile(r"[\r\n\x00]")


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
        self._sock: socket.socket | None = None
        #: Bytes of the connection received and not yet taken by a reply.
        self._buf = bytearray()
        self._host_line = f"Host: {host}:{self.port}\r\n"
        #: Diagnostics: total retries performed across all requests, the
        #: request attempts sent, their bytes and the bytes of the replies.
        self.retry_count = 0
        self.requests = self.bytes_sent = self.bytes_received = 0

    # -- transport -------------------------------------------------------------
    def close(self) -> None:
        """Drop the persistent connection (reopened on next request)."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buf.clear()

    def _once(self, method: str, path: str, body: bytes,
              headers: dict[str, str]) -> tuple[int, dict[str, str], bytes]:
        """One exchange on the keep-alive socket: ``(status, lower-cased
        headers, body)``.  ``ValueError`` before a byte is sent for a
        request that cannot be framed; an ``OSError`` drops the socket."""
        if not (_TOKEN.fullmatch(method) and _TOKEN.fullmatch(path)):
            raise ValueError(f"cannot send {method!r} {path!r}: a method or "
                             "target byte outside visible ASCII")
        head = (f"{method} {path} HTTP/1.1\r\n{self._host_line}"
                f"Content-Length: {len(body)}\r\n")
        for name, value in headers.items():
            if not _FIELD_NAME.fullmatch(name) or _LINE_BREAK.search(value):
                raise ValueError(f"cannot send header {name!r}: {value!r}")
            head += f"{name}: {value}\r\n"
        request = (head + "\r\n").encode("latin-1") + body
        try:
            sock = self._sock or self._connect()
            sock.sendall(request)
            self.requests += 1
            self.bytes_sent += len(request)
            return self._read_reply(sock)
        except OSError:
            self.close()
            raise

    def _connect(self) -> socket.socket:
        sock = self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _receive(self, sock: socket.socket) -> None:
        chunk = sock.recv(_RECV_BYTES)
        if not chunk:
            raise ConnectionError("connection closed inside a reply")
        self._buf += chunk

    def _read_reply(self, sock: socket.socket
                    ) -> tuple[int, dict[str, str], bytes]:
        """Take the next reply off the buffer, receiving until it is
        whole: a ``HTTP/1.x NNN`` status line, header lines, a blank line
        (lines end in ``\\n`` or ``\\r\\n``) and ``Content-Length`` body
        bytes.  A reply it cannot frame, or one the connection cuts short,
        raises ``ConnectionError``: retried like a reset.  The socket is
        closed after a reply on ``Connection: close`` or when bytes
        follow it."""
        buf, start, lines = self._buf, 0, 0
        while True:
            end = buf.find(b"\n", start, start + _MAX_LINE)
            if end < 0:
                if len(buf) - start >= _MAX_LINE:
                    raise ConnectionError(f"reply line over {_MAX_LINE} bytes")
                self._receive(sock)
                continue
            if lines and (end == start
                          or (end == start + 1 and buf[start] == 13)):
                break
            if lines > _MAX_HEADER_LINES:
                raise ConnectionError(f"over {_MAX_HEADER_LINES} reply header lines")
            lines += 1
            start = end + 1
        status_line, *header_lines = \
            buf[:start - 1].decode("latin-1").split("\n")
        parts = status_line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith("HTTP/1.")
                or len(parts[1]) != 3 or not parts[1].isdecimal()
                or parts[1][0] == "0"):
            raise ConnectionError(f"malformed status line {status_line[:64]!r}")
        headers: dict[str, str] = {}
        for line in header_lines:  # as http.client: the value lstripped
            name, _, value = line.partition(":")
            headers[name.lower()] = value.lstrip(" \t").removesuffix("\r")
        if "transfer-encoding" in headers:
            raise ConnectionError("a reply with Transfer-Encoding: the gateway "
                           "frames every body with Content-Length")
        raw = headers.get("content-length", "").strip()
        try:  # ASCII digits only: int() also takes "+5" and "5_0"
            size = int(raw) if raw.isdecimal() else -1
        except ValueError:  # more digits than int() converts
            size = -1
        if size < 0:
            raise ConnectionError(f"reply Content-Length {raw[:32]!r} is not a "
                           "number of bytes")
        body_at = end + 1
        end = body_at + size
        while len(buf) < end:
            self._receive(sock)
        with memoryview(buf) as view:
            payload = bytes(view[body_at:end])
        del buf[:end]
        self.bytes_received += end
        if buf or "close" in headers.get("connection", "").lower():
            self.close()  # told to, or the stream is out of step
        return int(parts[1]), headers, payload

    def request(self, method: str, path: str, body: bytes = b"",
                headers: dict[str, str] | None = None
                ) -> tuple[dict[str, str], bytes]:
        """One request with retry-on-refusal; returns (headers, body).

        Retries connection failures and 503 refusals with exponential
        backoff + jitter (honouring ``Retry-After``); any other non-2xx
        raises :class:`GatewayError` immediately.  A request that cannot
        be framed — a method or target byte outside visible ASCII, a
        header name or value holding CR, LF or NUL — raises ``ValueError``
        before anything is sent, and is not retried.
        """
        headers = dict(headers or {})
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            floor_s = 0.0
            try:
                status, resp_headers, payload = self._once(
                    method, path, body, headers)
            except OSError as exc:  # bad reply, reset, refused, timeout
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
    #: What its client moved, taken by :meth:`Volunteer.close`: retries,
    #: request attempts sent, their bytes and the bytes of the replies.
    retries: int = 0
    requests: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


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

    def close(self) -> None:
        """Record in :attr:`stats` what the client moved; close it."""
        client, stats = self.client, self.stats
        stats.retries, stats.requests = client.retry_count, client.requests
        stats.bytes_sent = client.bytes_sent
        stats.bytes_received = client.bytes_received
        client.close()


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
    volunteer.close()
    return volunteer.stats
