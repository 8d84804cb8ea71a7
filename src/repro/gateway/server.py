"""The live asyncio HTTP gateway: real volunteers against the shared core.

A single-threaded :mod:`asyncio` server (stdlib only: one protocol
object per connection, its buffer framed by the sans-IO
:class:`~repro.gateway.framing.RequestFramer`, the engine that also
frames the client's replies) exposing the pull protocol of
:mod:`repro.gateway.protocol`:

- control plane: ``/rpc/register`` and ``/rpc/scheduler`` delegate to the
  *same* :class:`repro.boinc.server.SchedulerCore` state machine the
  simulator drives, with a wall-clock ``clock`` injected instead of
  ``sim.now``;
- data plane: ``/data/{name}`` downloads and ``/upload/...`` uploads hit
  a :class:`repro.gateway.files.BlobStore` with CRC32 checksum headers;
- job plane: ``/jobs`` submission, status polling, and output reclaim
  via :class:`repro.gateway.jobs.GatewayJobTracker`.

Because the event loop is single-threaded and a request is parsed,
dispatched and answered inside one ``data_received`` callback,
core/state mutations need no locking — the same property the simulator
gets from cooperative scheduling.  A daemon
task ticks :meth:`SchedulerCore.run_daemon_passes` on a wall-clock
cadence, standing in for the feeder/transitioner/validator/assimilator
polling processes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import random
import sys
import threading
import time
import typing as _t

from ..boinc.dataserver import FileMissing, ServerUnavailable
from ..boinc.model import FileRef, OutputData, ResultState, WorkunitState
from ..boinc.server import (
    ReportedResult,
    SchedulerCore,
    SchedulerReply,
    SchedulerRequest,
    ServerConfig,
)
from ..obs.metrics import Counter, Histogram, MetricsRegistry
from ..sim import Tracer
from . import protocol
from .files import BlobStore
from .framing import FramingError, RequestFramer

#: Latency buckets (seconds) for live RPC histograms: sub-millisecond to
#: multi-second, matching what a loopback-to-WAN deployment can see.
RPC_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
               0.1, 0.25, 0.5, 1.0, 2.5)

#: Once a request's first byte is in, the rest of its head and body must
#: follow within this long (``GatewayClient``'s own socket timeout).
_READ_TIMEOUT_S = 10.0

#: Feeder shared-memory slots visible to the live scheduler.
_FEEDER_CACHE_SIZE = 256

#: Next-contact hint handed to clients in every scheduler reply.
REQUEST_DELAY_S = 0.0
#: ``Retry-After`` value (seconds) sent with 503 refusals.
RETRY_AFTER_S = 0.5

#: What a handler returns: (status, headers, payload).
_Reply = tuple[int, dict[str, str], bytes]


#: ``status -> b"HTTP/1.1 <status> <reason>\r\nContent-Length: "`` for 200
#: and every status of ``protocol.ERROR_CODES``.
_STATUS_PREFIX = {
    status: f"HTTP/1.1 {status} {reason}\r\nContent-Length: ".encode("latin-1")
    for status, reason in ((200, "OK"), (400, "Bad Request"),
                           (403, "Forbidden"), (404, "Not Found"),
                           (405, "Method Not Allowed"), (409, "Conflict"),
                           (422, "Unprocessable Entity"),
                           (503, "Service Unavailable"))}
#: The headers of every JSON reply (one shared dict: never mutated), and
#: the bytes they are sent as.
_JSON_HEADERS = {"Content-Type": "application/json"}
_JSON_BLOCK = b"\r\nContent-Type: application/json\r\n\r\n"


def _framed(status: int, headers: dict[str, str], payload: bytes) -> bytes:
    """One HTTP/1.1 response with Content-Length framing."""
    if headers == _JSON_HEADERS:
        block = _JSON_BLOCK
    else:
        block = ("".join(f"\r\n{k}: {v}" for k, v in headers.items())
                 + "\r\n\r\n").encode("latin-1")
    return b"%b%d%b%b" % (_STATUS_PREFIX[status], len(payload), block, payload)


class _Connection(asyncio.Protocol):
    """One keep-alive connection: every whole request in the buffer is
    parsed, dispatched and answered inside the callback that delivered
    its last byte."""

    __slots__ = ("server", "transport", "requests", "paused")

    def __init__(self, server: "GatewayServer") -> None:
        """A connection of *server*, not yet made."""
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.requests = RequestFramer()
        #: True while the peer is not reading its replies.
        self.paused = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        """Join the server's set of open connections."""
        self.transport = transport
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        """Buffer *data* and serve what it completes."""
        self.requests.buffer += data
        if not self.paused:
            self._serve()

    def pause_writing(self) -> None:
        """The peer is not reading its replies: stop reading its requests
        (what is already buffered waits, unparsed, for
        :meth:`resume_writing`)."""
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        """The peer caught up: read again, after what was buffered."""
        self.paused = False
        self.transport.resume_reading()
        self._serve()

    def connection_lost(self, exc: Exception | None) -> None:
        """Leave the server's sets; a connection that broke, or ended
        inside a request, counts as a disconnect and runs nothing."""
        server = self.server
        server._connections.discard(self)
        server._reading.pop(self, None)
        if exc is not None or self.requests.buffer:
            server.metrics.counter("gateway.disconnects_total").inc()

    def _serve(self) -> None:
        """Answer, in order, every whole request at the front of the
        buffer, until it is empty, the peer stops reading, or the
        connection is to close: a lone request's reply at once, a burst's
        held and written together below the high-water mark.  A request
        left unfinished stands in ``_reading`` until it is whole."""
        server, requests, transport = self.server, self.requests, self.transport
        held: list[bytes] | None = None
        while True:
            try:
                request = requests.next_message()
            except FramingError as exc:
                # Where this request ends is unknown, so the stream
                # cannot be resynchronised: reply, then hang up.
                self._flush(held)
                self._refuse(str(exc))
                return
            if request is None:
                if requests.buffer:
                    server._reading.setdefault(self, time.monotonic())
                break
            if server._reading:
                server._reading.pop(self, None)
            method, path, headers, body = request
            reply = _framed(*server._dispatch(method, path, headers, body))
            close = headers.get("connection", "").lower() == "close"
            if held is None:
                if not (close or requests.buffer):
                    transport.write(reply)
                    return
                held, size, limit = [], 0, transport.get_write_buffer_limits()[1]
            held.append(reply)
            size += len(reply)
            if close or size >= limit:
                self._flush(held)
                size = 0
            if close:
                self._close()
                return
            if self.paused or transport.is_closing():
                break
        self._flush(held)

    def _flush(self, held: list[bytes] | None) -> None:
        """Write the *held* replies in one write, and empty the list."""
        if held:
            if len(held) > 1:
                self.server.metrics.counter(
                    "gateway.coalesced_replies_total").inc(len(held) - 1)
            self.transport.write(b"".join(held))
            held.clear()

    def _refuse(self, detail: str) -> None:
        """Answer 400 ``bad_request`` + ``Connection: close``, hang up."""
        server = self.server
        status, headers, payload = server._error("bad_request", detail)
        headers["Connection"] = "close"
        server.metrics.counter("gateway.http_requests_total").inc()
        server.metrics.counter("gateway.http_errors_total").inc()
        self.transport.write(_framed(status, headers, payload))
        self._close()

    def _close(self) -> None:
        """Hang up once what was written has gone out.  Bytes still
        buffered are no request of this connection's any more."""
        self.requests.buffer.clear()
        self.server._reading.pop(self, None)
        self.transport.close()


@dataclasses.dataclass(slots=True)
class GatewayConfig:
    """Tunables for the live gateway front end."""

    #: Bind address; port 0 lets the OS pick a free port.
    host: str = "127.0.0.1"
    port: int = 0
    #: Wall-clock period of the daemon tick (one full
    #: feeder/transitioner/validator/assimilator pipeline per tick).
    daemon_period_s: float = 0.02
    #: Lease deadline for live results (sent_at + delay_bound).
    delay_bound_s: float = 30.0

    def server_config(self) -> ServerConfig:
        """The shared-core :class:`ServerConfig` this front end implies."""
        return ServerConfig(
            request_delay_s=REQUEST_DELAY_S,
            delay_bound_s=self.delay_bound_s,
            feeder_cache_size=_FEEDER_CACHE_SIZE,
        )


class GatewayServer:
    """Asyncio HTTP front end over the shared scheduler core, a blob store
    and the job tracker."""

    def __init__(self, config: GatewayConfig | None = None) -> None:
        """A stopped server over a fresh core, store and tracker, timed by
        the monotonic wall clock; call :meth:`start` inside a running loop."""
        self.config = config or GatewayConfig()
        self.metrics = MetricsRegistry()
        t0 = time.monotonic()
        # Nothing on the gateway reads the records back: count every kind
        # and serve taps, store none (a server runs for days).  The rng is
        # never drawn: the gateway runs no adaptive replication and no
        # simulated RPC, so a stdlib stream does.
        self.core = SchedulerCore(config=self.config.server_config(),
                                  tracer=Tracer(keep=lambda kind: False),
                                  metrics=self.metrics,
                                  rng=random.Random(0),
                                  clock=lambda: time.monotonic() - t0)
        self.store = BlobStore()
        self.core.publish_input = self.store.publish
        # Imported here, not with this module: the job plane brings numpy
        # and numpy.random (it draws corpora), which a client importing
        # this module never needs.  Not later either: at the first
        # POST /jobs, their import (numpy's BLAS threads start) would
        # land inside that request.
        from .jobs import GatewayJobTracker
        self.jobs = GatewayJobTracker(self.core, self.store)
        #: (result_id, name) -> checksum of the one upload that result
        #: made to that name (each result writes each of its names once).
        self.written: dict[tuple[int, str], str] = {}
        self.port: int | None = None
        self._connections: set[_Connection] = set()
        #: Each connection with a request begun and not yet whole ->
        #: ``time.monotonic()`` of when its first bytes were looked at.
        self._reading: dict[_Connection, float] = {}
        self._server: asyncio.base_events.Server | None = None
        self._daemon_task: asyncio.Task | None = None
        #: Bound by the first request, when ``/status`` starts to list it.
        self._requests_total: Counter | None = None
        #: ``no_work ->`` a reply without assignments.
        self._canned: dict[bool, _Reply] = {}
        self._bind_routes()

    def _bind_routes(self) -> None:
        """Bind each ``protocol.ENDPOINTS`` entry to its handler and its
        latency histogram; one without the other is an error."""
        unbound = _HANDLERS.keys() ^ {ep.path for ep in protocol.ENDPOINTS}
        if unbound:
            raise LookupError(f"protocol.ENDPOINTS and the gateway's handlers "
                              f"differ on {sorted(unbound)}")
        def histogram(family: str) -> Histogram:
            return self.metrics.histogram(f"gateway.rpc.{family}_s",
                                          buckets=RPC_BUCKETS)

        #: ``path -> route`` for parameter-free paths; ``(head, tail,
        #: route)`` around the variable part for the rest, most literal
        #: text first (``/jobs/{name}/output`` before ``/jobs/{name}``).
        self._exact: dict[str, tuple] = {}
        self._patterns: list[tuple] = []
        for ep in protocol.ENDPOINTS:
            handler, family = _HANDLERS[ep.path]
            route = (ep, getattr(self, handler), histogram(family))
            head, brace, _ = ep.path.partition("{")
            if brace:
                tail = ep.path.rpartition("}")[2]
                self._patterns.append((head, tail, route))
            else:
                self._exact[ep.path] = route
        self._patterns.sort(key=lambda p: -len(p[0]) - len(p[1]))
        self._no_route = (None, None, histogram("other"))

    @property
    def connections_active(self) -> int:
        """Open HTTP connections."""
        return len(self._connections)

    @property
    def address(self) -> str:
        """``host:port`` clients should dial (valid after :meth:`start`)."""
        if self.port is None:
            raise RuntimeError("server not started")
        return f"{self.config.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the daemon tick task."""
        from ..obs.probes import attach_gateway_probes
        attach_gateway_probes(self)
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._daemon_task = loop.create_task(self._daemon_loop())

    async def stop(self) -> None:
        """Stop serving: listener, open connections, daemon task (state survives)."""
        if self._daemon_task is not None:
            self._daemon_task.cancel()
            try:
                await self._daemon_task
            except asyncio.CancelledError:
                pass
            self._daemon_task = None
        if self._server is not None:
            self._server.close()
            for conn in tuple(self._connections):
                conn.transport.abort()
            await self._server.wait_closed()
            self._server = None

    async def _daemon_loop(self) -> None:
        """Tick the shared daemons' pipeline on a wall-clock cadence, then
        time out the requests that stalled half-sent."""
        while True:
            t0 = time.perf_counter()
            self.core.run_daemon_passes()
            self.metrics.histogram("gateway.daemon_tick_s",
                                   buckets=RPC_BUCKETS).observe(
                time.perf_counter() - t0)
            self._expire_stalled_reads()
            await asyncio.sleep(self.config.daemon_period_s)

    @classmethod
    def in_thread(cls,
                  config: GatewayConfig | None = None) -> "GatewayHandle":
        """Run a gateway on a fresh event loop in a daemon thread.

        The blocking-world entry point used by doctests, tests, and
        ``repro loadgen`` without ``--address``: returns a
        :class:`GatewayHandle` once the listener is bound.  If binding
        fails (the port is taken), the loop is closed and the caller
        gets the exception.
        """
        server = cls(config=config)
        started: concurrent.futures.Future[None] = concurrent.futures.Future()
        loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(server.start())
            except BaseException as exc:
                loop.close()
                started.set_exception(exc)
                return
            started.set_result(None)
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        thread = threading.Thread(target=_run, name="gateway", daemon=True)
        thread.start()
        started.result()
        return GatewayHandle(server, loop, thread)

    def _expire_stalled_reads(self) -> None:
        """Refuse each request still incomplete ``_READ_TIMEOUT_S`` after
        its first bytes were looked at.  One sweep a daemon tick, not a
        timer a request: arming ``asyncio.timeout`` 8,000 times doubled
        what reading a no-work poll costs."""
        overdue = time.monotonic() - _READ_TIMEOUT_S
        for conn in [c for c, t0 in self._reading.items() if t0 <= overdue]:
            conn._refuse(f"request incomplete {_READ_TIMEOUT_S:g}s after "
                         f"its first byte")

    # -- routing ---------------------------------------------------------------
    def _dispatch(self, method: str, path: str, headers: dict[str, str],
                  body: _t.Any) -> _Reply:
        """Serve one request — match the path, refuse a wrong method,
        decode + validate the declared request schema, call the handler —
        and account its latency and outcome; returns (status, headers,
        payload)."""
        t0 = time.perf_counter()
        route, arg = self._exact.get(path, self._no_route), ""
        if route is self._no_route:
            for head, tail, candidate in self._patterns:
                if path.startswith(head) and path.endswith(tail):
                    route = candidate
                    arg = path[len(head):len(path) - len(tail)]
                    break
        endpoint, handler, histogram = route
        try:
            if endpoint is None:
                reply = self._error("not_found", f"no route {path!r}")
            elif method != endpoint.method:
                reply = self._error("method_not_allowed",
                                    f"use {endpoint.method}")
            else:
                if endpoint.request_schema is not None:
                    body = protocol.loads(body)
                    problems = protocol.validate(endpoint.request_schema, body)
                    if problems:
                        raise ValueError("; ".join(problems))
                reply = handler(arg, headers, body)
        except ServerUnavailable:
            reply = self._error("unavailable", "server refusing; retry",
                                retry_after_s=RETRY_AFTER_S)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            # OverflowError: an integer too large for float()
            reply = self._error("bad_request", f"{type(exc).__name__}: {exc}")
        histogram.observe(time.perf_counter() - t0)
        requests_total = self._requests_total
        if requests_total is None:
            requests_total = self._requests_total = self.metrics.counter(
                "gateway.http_requests_total")
        requests_total.inc()
        if reply[0] >= 400:
            self.metrics.counter("gateway.http_errors_total").inc()
        return reply

    @staticmethod
    def _json(status: int, payload: _t.Any) -> _Reply:
        """A JSON response triple."""
        return status, _JSON_HEADERS, protocol.dumps(payload)

    def _error(self, code: str, detail: str,
               retry_after_s: float | None = None) -> _Reply:
        """An ``Error``-schema response triple for *code*."""
        status, body = protocol.error_body(code, detail, retry_after_s)
        headers = {"Content-Type": "application/json"}
        if retry_after_s is not None:
            headers["Retry-After"] = f"{retry_after_s:g}"
        return status, headers, body

    # -- control plane ---------------------------------------------------------
    def _rpc_register(self, _arg: str, _headers: dict, req: dict) -> _Reply:
        """``POST /rpc/register``: host registration, idempotent by name."""
        if not self.core.available:
            raise ServerUnavailable("registration refused")
        # Below 1 FLOP/s, an estimate wu.flops / flops may overflow.
        if not 1 <= req["flops"] <= sys.float_info.max:
            raise ValueError("RegisterRequest.flops: expected a finite "
                             f"number >= 1, got {req['flops']!r}")
        host_id = next((rec.id for rec in self.core.db.hosts.values()
                        if rec.name == req["name"]), None)
        if host_id is None:
            host_id = self.core.register_host(
                req["name"], float(req["flops"]),
                supports_mr=req.get("supports_mr", True)).id
        return self._json(200, {
            "host_id": host_id,
            "request_delay_s": REQUEST_DELAY_S})

    def _rpc_scheduler(self, _arg: str, _headers: dict, req: dict) -> _Reply:
        """``POST /rpc/scheduler``: reports in, assignments out."""
        if req["host_id"] not in self.core.db.hosts:
            return self._error("unknown_host",
                               f"host {req['host_id']} not registered")
        reports = []
        for rep in req.get("reports", []):
            res = self.core.db.results.get(rep["result_id"])
            if res is None or res.reported_at is not None:
                # Replayed/stale report: BOINC drops these silently, the
                # gateway additionally counts them (idempotency metric).
                self.metrics.counter(
                    "gateway.duplicate_reports_total").inc()
                continue
            output = None
            if rep["success"]:
                files = tuple(FileRef(f["name"], float(f["size"]))
                              for f in rep.get("output_files", []))
                output = OutputData(digest=rep.get("digest") or "",
                                    files=files)
            reports.append(ReportedResult(
                result_id=rep["result_id"], success=rep["success"],
                output=output, elapsed_s=float(rep["elapsed_s"])))
        reply = self.core.handle_scheduler_request(SchedulerRequest(
            host_id=req["host_id"], work_req_s=float(req["work_req_s"]),
            reports=reports))
        if reply.refused_reports:  # another host's results: counted alike
            self.metrics.counter("gateway.duplicate_reports_total").inc(
                reply.refused_reports)
        if reply.assignments:
            return self._json(200, self._encode_reply(reply))
        if reply.no_work not in self._canned:
            self._canned[reply.no_work] = self._json(
                200, self._encode_reply(reply))
        return self._canned[reply.no_work]

    def _encode_reply(self, reply: SchedulerReply) -> dict:
        """Serialise a core :class:`SchedulerReply` into a wire ``WorkReply``."""
        tasks = [{
            "result_id": a.result_id, "wu_id": a.wu.id,
            "input_files": [f.name for f in a.wu.input_files],
            "est_runtime_s": a.est_runtime_s, "deadline": a.deadline,
            **self.jobs.task_params(a.wu),
        } for a in reply.assignments]
        return {"assignments": tasks,
                "request_delay_s": reply.request_delay_s,
                "no_work": reply.no_work}

    # -- data plane ------------------------------------------------------------
    def _data_get(self, name: str, _headers: dict, _body: bytes) -> _Reply:
        """``GET /data/{name}``: blob bytes + checksum header."""
        try:
            data = self.store.fetch(name)
        except FileMissing:
            return self._error("not_found", f"no blob {name!r}")
        return (200, {"Content-Type": "application/octet-stream",
                      protocol.CHECKSUM_HEADER: self.store.checksum_of(name)},
                data)

    def _upload(self, rest: str, headers: dict, body: bytes) -> _Reply:
        """``POST /upload/{result_id}/{name}``: checksum-verified ingest."""
        result_id_s, _, name = rest.partition("/")
        if not result_id_s.isdigit() or not name:
            return self._error("bad_request",
                               "upload path must be /upload/<id>/<name>")
        result_id = int(result_id_s)
        res = self.core.db.results.get(result_id)
        if res is None:
            return self._error("unknown_result",
                               f"result {result_id} was never issued")
        wu = self.core.db.workunits[res.wu_id]
        outputs = self.jobs.output_names(wu)
        if res.state is not ResultState.IN_PROGRESS or name not in outputs:
            return self._error("upload_refused", f"result {result_id} "
                               f"({res.state.value}) may not write {name!r}")
        claimed = headers.get(protocol.CHECKSUM_HEADER.lower())
        actual = protocol.checksum(body)
        if claimed is not None and claimed != actual:
            self.metrics.counter("gateway.bad_checksum_total").inc()
            return self._error("checksum_mismatch",
                               f"claimed {claimed}, got {actual}")
        written = self.written.get((result_id, name))
        if written is None:
            if wu.state is WorkunitState.ACTIVE:  # else settled: too late
                self.store.stage(result_id, name, body)
            self.written[(result_id, name)] = actual
            self.core.record_upload(result_id)
            self.metrics.counter("gateway.uploads_total").inc()
        elif written != actual:
            return self._error("upload_refused", f"result {result_id} "
                               f"already wrote other bytes to {name!r}")
        # (written == actual: a replay after a lost reply stores nothing.)
        return self._json(200, {"received": True, "result_id": result_id,
                                "name": name, "size": len(body)})

    # -- job plane -------------------------------------------------------------
    def _job_submit(self, _arg: str, _headers: dict, request: dict) -> _Reply:
        """``POST /jobs``: generate corpus, split, submit map workunits."""
        # A taken name or unknown app raises ValueError: 400, see _dispatch.
        # The job is generated, split and scheduled on the event loop, so
        # its counts and corpus are bounded like a body — checked first.
        if not protocol.JOB_NAME.fullmatch(request["name"]):
            raise ValueError("JobRequest.name: expected 1..128 of A-Z a-z "
                             f"0-9 . _ -, got {request['name'][:140]!r}")
        for field, most in protocol.JOB_LIMITS.items():
            value = request.get(field, 1)
            if not 1 <= value <= most:
                raise ValueError(f"JobRequest.{field}: expected 1..{most}, "
                                 f"got {value}")
        if request["corpus"]["size"] > RequestFramer.MAX_BODY:
            raise ValueError("JobRequest.corpus.size: at most "
                             f"{RequestFramer.MAX_BODY} bytes, "
                             f"got {request['corpus']['size']}")
        spec = self.jobs.submit_spec(request).spec
        return self._json(200, {"name": spec.name, "n_maps": spec.n_maps,
                                "n_reducers": spec.n_reducers,
                                "workunits": spec.n_maps})

    def _job_status(self, name: str, _headers: dict, _body: bytes) -> _Reply:
        """``GET /jobs/{name}``: the job's wire status."""
        job = self.jobs.jobs.get(name)
        if job is None:
            return self._error("not_found", f"no job {name!r}")
        return self._json(200, self.jobs.status(job))

    def _job_output(self, name: str, _headers: dict, _body: bytes) -> _Reply:
        """``GET /jobs/{name}/output``: reclaim the merged payload."""
        job = self.jobs.jobs.get(name)
        if job is None:
            return self._error("not_found", f"no job {name!r}")
        if not job.done.is_set():
            return self._error("not_ready", f"job {name!r} is running")
        if job.done.exception is not None:
            return self._error("not_ready", str(job.done.exception))
        payload = self.jobs.outputs[name]
        return (200, {"Content-Type": "application/octet-stream",
                      protocol.CHECKSUM_HEADER: protocol.checksum(payload)},
                payload)

    # -- introspection ---------------------------------------------------------
    def _status(self, _arg: str, _headers: dict, _body: bytes) -> _Reply:
        """``GET /status``: the BOINC server-status page, JSON edition."""
        counters = {i.name: i.value for i in self.metrics.instruments()
                    if isinstance(i, Counter)}
        return self._json(200, {
            "now": self.core.now,
            "counts": self.core.db.counts(),
            "counters": counters,
            "jobs": self.jobs.states(),
        })

    def _healthz(self, _arg: str, _headers: dict, _body: bytes) -> _Reply:
        """``GET /healthz``: liveness and the protocol version."""
        return self._json(200, {"ok": True,
                                "version": protocol.PROTOCOL_VERSION})

    def _metrics(self, _arg: str, _headers: dict, _body: bytes) -> _Reply:
        """``GET /metrics``: the registry in Prometheus text format."""
        return (200, {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                self.metrics.render_prometheus().encode())


#: Path template of each ``protocol.ENDPOINTS`` entry -> (the
#: :class:`GatewayServer` method serving it, the family of the
#: ``gateway.rpc.<family>_s`` histogram its latency lands in).  A handler
#: takes ``(arg, headers, body)``: the variable part of the path, the
#: lower-cased request headers, and the body — decoded and validated
#: already when the endpoint declares a request schema.
_HANDLERS = {
    "/rpc/register": ("_rpc_register", "register"),
    "/rpc/scheduler": ("_rpc_scheduler", "scheduler"),
    "/data/{name}": ("_data_get", "data"),
    "/upload/{result_id}/{name}": ("_upload", "upload"),
    "/jobs": ("_job_submit", "jobs"),
    "/jobs/{name}": ("_job_status", "jobs"),
    "/jobs/{name}/output": ("_job_output", "jobs"),
    "/status": ("_status", "other"),
    "/healthz": ("_healthz", "other"),
    "/metrics": ("_metrics", "other"),
}


class GatewayHandle:
    """Blocking-world handle to a gateway running on a background thread.

    What :meth:`GatewayServer.in_thread` returns: the :attr:`address` a
    :class:`~repro.gateway.client.GatewayClient` dials to submit jobs and
    reclaim their output, the running ``server``, and :meth:`close`.
    """

    def __init__(self, server: GatewayServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        """Wrap a started *server* owned by *loop* on *thread*."""
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def address(self) -> str:
        """``host:port`` for clients to dial."""
        return self.server.address

    def close(self) -> None:
        """Stop the server and join its thread (state is preserved)."""
        if not self.loop.is_closed():
            asyncio.run_coroutine_threadsafe(self.server.stop(),
                                             self.loop).result(10.0)
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
