"""Blocking gateway client + the real-process volunteer loop.

:class:`GatewayClient` is the live transport that swaps in for the
simulated comm gate: the same pull-protocol verbs the simulated client
performs against :class:`repro.boinc.project.ProjectServer` — register,
scheduler RPC with piggybacked reports, checksum-verified download,
upload — issued as HTTP/1.1 on one keep-alive TCP socket that the client
frames itself: a request, or a task's pipelined batch, goes out in one
``sendall``, each reply is read off a per-connection buffer (what it
accepts: docs/protocol.md, "Transport conventions").  Retry semantics
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
import pickle
import random
import re
import socket
import time
import typing as _t

from ..runtime.engine import LocalRunner
from ..sim.rng import backoff_delay
from . import protocol
from .framing import ReplyFramer
from .tasks import (
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
#: Speed every live volunteer registers with; the real engine runs as
#: fast as the box allows.
VOLUNTEER_FLOPS = 1e9


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
        #: The connection's bytes received and not yet taken by a reply.
        self._replies = ReplyFramer()
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
        self._replies = ReplyFramer()

    def _frame(self, method: str, path: str, body: bytes,
               headers: dict[str, str]) -> bytes:
        """The bytes of one request; ``ValueError`` if it cannot be framed."""
        if not (_TOKEN.fullmatch(method) and _TOKEN.fullmatch(path)):
            raise ValueError(f"cannot send {method!r} {path!r}: a method or "
                             "target byte outside visible ASCII")
        head = (f"{method} {path} HTTP/1.1\r\n{self._host_line}"
                f"Content-Length: {len(body)}\r\n")
        for name, value in headers.items():
            if not _FIELD_NAME.fullmatch(name) or _LINE_BREAK.search(value):
                raise ValueError(f"cannot send header {name!r}: {value!r}")
            head += f"{name}: {value}\r\n"
        return (head + "\r\n").encode("latin-1") + body

    def _once(self, method: str, path: str, body: bytes,
              headers: dict[str, str]) -> tuple[int, dict[str, str], bytes]:
        """One exchange on the keep-alive socket: ``(status, lower-cased
        headers, body)``.  ``ValueError`` before a byte is sent for a
        request that cannot be framed; an ``OSError`` drops the socket."""
        return self._exchange([self._frame(method, path, body, headers)], [])[0]

    def _exchange(self, requests: list[bytes], replies: list) -> list:
        """Send framed *requests* in one ``sendall``; append their replies
        to *replies*, in order, and return it.  An ``OSError`` drops the
        socket; the replies read before it stay in *replies*."""
        try:
            sock = self._sock or self._connect()
            data = b"".join(requests)
            sock.sendall(data)
            self.requests += len(requests)
            self.bytes_sent += len(data)
            for left in range(len(requests) - 1, -1, -1):
                replies.append(self._read_reply(sock, last=not left))
                if left and self._sock is None:
                    raise ConnectionError(f"connection closed with {left} "
                                          "replies to come")
        except OSError:
            self.close()
            raise
        return replies

    def _connect(self) -> socket.socket:
        sock = self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _read_reply(self, sock: socket.socket, last: bool
                    ) -> tuple[int, dict[str, str], bytes]:
        """Take the next reply off the buffer, receiving until it is whole.
        A reply :class:`~repro.gateway.framing.ReplyFramer` refuses, or one
        the connection cuts short, raises ``ConnectionError``: retried like
        a reset.  The socket is closed after ``Connection: close``, or when
        bytes follow the *last* reply of a batch."""
        replies = self._replies
        held = len(replies.buffer)
        while (reply := replies.next_message()) is None:
            chunk = sock.recv(_RECV_BYTES)
            if not chunk:
                raise ConnectionError("connection closed inside a reply")
            replies.buffer += chunk
            held += len(chunk)
        self.bytes_received += held - len(replies.buffer)
        if ((replies.buffer and last)
                or "close" in reply[1].get("connection", "").lower()):
            self.close()  # told to, or the stream is out of step
        return reply

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
        return self._request_all([(method, path, body, headers or {})])[0]

    def _request_all(self, requests: list[tuple[str, str, bytes, dict]]
                     ) -> list[tuple[dict[str, str], bytes]]:
        """:meth:`request` for a pipelined batch; an error is raised once
        every reply is read.  Only the unanswered and the 503'd requests
        are sent again, each counted as one retry."""
        frames = [self._frame(*r) for r in requests]
        replies: list = [None] * len(frames)
        pending = list(range(len(frames)))
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            got: list = []
            try:
                self._exchange([frames[i] for i in pending], got)
            except OSError as exc:  # bad reply, reset, refused, timeout
                last = exc
            floor_s, refused = 0.0, []
            for i, (status, resp_headers, payload) in zip(pending, got):
                if status < 400:
                    replies[i] = resp_headers, payload
                    continue
                last = err = self._decode_error(status, payload)
                if not err.retryable or attempt == self.retries:
                    raise err
                refused.append(i)
                floor_s = max(floor_s, err.retry_after_s)
            pending = refused + pending[len(got):]
            if not pending:
                return replies
            if attempt == self.retries:
                break  # nothing left to wait for
            self.retry_count += len(pending)
            time.sleep(retry_delay(self.rng, attempt, floor_s))
        raise GatewayError(503, "unavailable",
                           f"retries exhausted: {last}")

    @staticmethod
    def _decode_error(status: int, payload: bytes) -> GatewayError:
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

    def register(self, name: str) -> int:
        """Register (idempotently) a BOINC-MR host of
        :data:`VOLUNTEER_FLOPS` and return its host id."""
        reply = self._json("POST", "/rpc/register", {
            "name": name, "flops": VOLUNTEER_FLOPS, "supports_mr": True})
        return reply["host_id"]

    def scheduler_rpc(self, host_id: int, work_req_s: float,
                      reports: list[dict] | None = None) -> dict:
        """One scheduler RPC: piggyback *reports*, ask for work."""
        return self._json("POST", "/rpc/scheduler", {
            "host_id": host_id, "work_req_s": work_req_s,
            "reports": reports or []})

    @staticmethod
    def _verified(reply: tuple[dict[str, str], bytes], what: str) -> bytes:
        """The body of *reply*, checked against its ``X-Checksum``."""
        headers, data = reply
        claimed = headers.get(protocol.CHECKSUM_HEADER.lower())
        if claimed is not None and claimed != protocol.checksum(data):
            raise GatewayError(200, "checksum_mismatch",
                               f"{what} corrupt in transit")
        return data

    def download(self, name: str) -> bytes:
        """Fetch blob *name*, verifying the ``X-Checksum`` header."""
        return self.download_all([name])[0]

    def download_all(self, names: _t.Sequence[str]) -> list[bytes]:
        """Fetch blobs *names* in one pipelined batch, each verified."""
        replies = self._request_all([("GET", f"/data/{name}", b"", {})
                                     for name in names])
        return [self._verified(reply, f"download {name!r}")
                for name, reply in zip(names, replies)]

    def upload(self, result_id: int, name: str, data: bytes) -> dict:
        """Upload one output blob for a leased result."""
        return self.upload_all(result_id, [(name, data)])[0]

    def upload_all(self, result_id: int,
                   outputs: _t.Sequence[tuple[str, bytes]]) -> list[dict]:
        """Upload a leased result's ``(name, data)`` *outputs*, pipelined."""
        replies = self._request_all([
            ("POST", f"/upload/{result_id}/{name}", data,
             {"Content-Type": "application/octet-stream",
              protocol.CHECKSUM_HEADER: protocol.checksum(data)})
            for name, data in outputs])
        return [protocol.loads(payload) for _, payload in replies]

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
        return self._verified(self.request("GET", f"/jobs/{name}/output"),
                              f"output of {name!r}")


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
    if kind not in ("map", "reduce"):
        raise ValueError(f"task {task['result_id']} has no MR kind")
    inputs = client.download_all(task["input_files"])
    if kind == "map":
        _report, blobs = runner.run_map_task(index, inputs[0])
        outputs = [(partition_blob_name(job, index, r), blobs[r])
                   for r in sorted(blobs)]
    else:
        _report, output = runner.run_reduce_task(index, inputs)
        outputs = [(reduce_blob_name(job, index), pickle.dumps(output))]
    client.upload_all(task["result_id"], outputs)
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

    def __init__(self, client: GatewayClient, name: str) -> None:
        """Register *name* (idempotently) through *client*."""
        self.client = client
        self.host_id = client.register(name)
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


def run_volunteer(address: str, name: str,
                  poll_s: float = 0.02, idle_limit: int = 100,
                  stop: _t.Callable[[], bool] | None = None
                  ) -> VolunteerStats:
    """The BOINC-MR client loop against a live gateway, to completion.

    Polls the scheduler, executes assignments with the real engine, and
    reports at the next RPC.  Returns after *idle_limit* consecutive
    no-work polls (with no reports pending), or when *stop* returns True.
    """
    client = GatewayClient(address)
    volunteer = Volunteer(client, name)
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
