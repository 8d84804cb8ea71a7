"""The live asyncio HTTP gateway: real volunteers against the shared core.

A single-threaded :mod:`asyncio` server (stdlib only: one protocol
object per connection, and the HTTP/1.1 framing is a pure function over
that connection's buffer, :class:`_RequestParser`) exposing the pull
protocol of :mod:`repro.gateway.protocol`:

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

Restart-with-state is first-class: pass a previous server's
:class:`GatewayState` to a new :class:`GatewayServer` and in-flight
leases survive the restart (clients keep their result ids; deadline
timeouts keep counting on the same clock).
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
import typing as _t

from ..boinc.dataserver import FileMissing, ServerUnavailable
from ..boinc.model import FileRef, OutputData
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
from ..core.job import MapReduceJob
from .jobs import WIRE_STATE, GatewayJobTracker, decode_payload

#: Latency buckets (seconds) for live RPC histograms: sub-millisecond to
#: multi-second, matching what a loopback-to-WAN deployment can see.
RPC_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
               0.1, 0.25, 0.5, 1.0, 2.5)

_MAX_HEADER_LINE = 16 * 1024
_MAX_HEADERS = 64
_MAX_BODY = 64 * 1024 * 1024
#: Once a request's first byte is in, the rest of its head and body must
#: follow within this long (``GatewayClient``'s own socket timeout).
_READ_TIMEOUT_S = 10.0

#: Feeder shared-memory slots visible to the live scheduler.
_FEEDER_CACHE_SIZE = 256

#: What a handler returns: (status, headers, payload).
_Reply = tuple[int, dict[str, str], bytes]


#: ``status -> b"HTTP/1.1 <status> <reason>\r\nContent-Length: "`` for 200
#: and every status of ``protocol.ERROR_CODES``.
_STATUS_PREFIX = {
    status: f"HTTP/1.1 {status} {reason}\r\nContent-Length: ".encode("latin-1")
    for status, reason in ((200, "OK"), (400, "Bad Request"),
                           (404, "Not Found"), (405, "Method Not Allowed"),
                           (409, "Conflict"), (422, "Unprocessable Entity"),
                           (503, "Service Unavailable"))}
#: The headers of every JSON reply, and the bytes they are sent as.
_JSON_HEADERS = {"Content-Type": "application/json"}
_JSON_BLOCK = b"\r\nContent-Type: application/json\r\n\r\n"


class _BadFraming(Exception):
    """A request whose extent cannot be trusted: answer 400, then close."""


class _RequestParser:
    """Sans-IO HTTP/1.1 request framing over the bytes in :attr:`buffer`.

    :meth:`next_request` takes the next whole request off the front of
    the buffer, returns None while it is not whole, and raises
    :class:`_BadFraming` for one whose extent cannot be trusted — as
    soon as the bytes that show it are in, so no limit waits for a line
    end or a blank line that may never come.  Lines end in ``\n`` or
    ``\r\n``; a request ends at its blank line plus ``Content-Length``
    body bytes, and not before.
    """

    __slots__ = ("buffer", "_scanned", "_lines", "_head")

    def __init__(self) -> None:
        """An empty buffer, nothing scanned."""
        self.buffer = bytearray()
        #: Where the first line not yet seen whole starts, and how many
        #: whole lines of the current head come before it.
        self._scanned = 0
        self._lines = 0
        #: The parsed head of a request whose body is still arriving.
        self._head: tuple | None = None

    def next_request(self) -> tuple[str, str, dict[str, str], bytes] | None:
        """``(method, path, headers, body)`` of the next whole request."""
        head = self._head
        if head is None:
            head = self._scan_head()
            if head is None:
                return None
        method, path, headers, body_at, end = head
        buffer = self.buffer
        if len(buffer) < end:
            self._head = head
            return None
        self._head = None
        with memoryview(buffer) as view:
            body = bytes(view[body_at:end])
        del buffer[:end]
        return method, path, headers, body

    def _scan_head(self) -> tuple | None:
        """Find the blank line that ends the head at the front of the
        buffer, each line bounded by ``_MAX_HEADER_LINE`` and their number
        by ``_MAX_HEADERS``, and parse the head; None while it is not
        whole.  Resumes where the last call stopped: feeding a head one
        byte at a time scans each byte once."""
        buffer, start, lines = self.buffer, self._scanned, self._lines
        while True:
            end = buffer.find(b"\n", start, start + _MAX_HEADER_LINE)
            if end < 0:
                if len(buffer) - start >= _MAX_HEADER_LINE:
                    raise _BadFraming(
                        f"request or header line over {_MAX_HEADER_LINE} bytes")
                if lines and not self._lines:
                    # The request line came whole in this scan and the
                    # head did not: refuse a malformed one now.
                    self._request_line(
                        buffer[:buffer.index(b"\n")].decode("latin-1"))
                self._scanned, self._lines = start, lines
                return None
            if lines and (end == start
                          or (end == start + 1 and buffer[start] == 13)):
                self._scanned = self._lines = 0
                return self._parse_head(start - 1, end + 1)
            if lines > _MAX_HEADERS:
                raise _BadFraming(f"more than {_MAX_HEADERS} header lines")
            lines += 1
            start = end + 1

    def _parse_head(self, last_line_end: int, body_at: int) -> tuple:
        """``(method, path, headers, body_at, end of body)`` of the head
        whose last line ends at *last_line_end*: one decode, the request
        line's three parts, headers lower-cased, the ``Content-Length``
        rule."""
        request_line, *header_lines = \
            self.buffer[:last_line_end].decode("latin-1").split("\n")
        method, target, _version = self._request_line(request_line)
        headers: dict[str, str] = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _BadFraming("Content-Length headers that disagree")
            headers[name] = value
        if "transfer-encoding" in headers:
            raise _BadFraming("Transfer-Encoding is not supported: frame "
                              "the body with Content-Length")
        raw_length = headers.get("content-length", "0")
        try:  # ASCII 1*DIGIT only: int() also takes "+24" and "2_4"
            length = (int(raw_length)
                      if raw_length.isascii() and raw_length.isdigit() else -1)
        except ValueError:  # more digits than int() converts
            length = -1
        if not 0 <= length <= _MAX_BODY:
            raise _BadFraming(
                f"Content-Length {raw_length[:32]!r} is not an integer in "
                f"0..{_MAX_BODY}")
        return method, target.split("?", 1)[0], headers, body_at, body_at + length

    @staticmethod
    def _request_line(line: str) -> list[str]:
        """The three parts of request line *line* (its ``\\n`` taken off)."""
        parts = line.split()
        if len(parts) != 3:
            raise _BadFraming("malformed request line "
                              f"{(line + chr(10))[:64].encode('latin-1')!r}")
        return parts


class _Connection(asyncio.Protocol):
    """One keep-alive connection: every whole request in the buffer is
    parsed, dispatched and answered inside the callback that delivered
    its last byte."""

    __slots__ = ("server", "transport", "requests", "paused")

    def __init__(self, server: "GatewayServer") -> None:
        """A connection of *server*, not yet made."""
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.requests = _RequestParser()
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
        buffer, until the buffer is empty, the peer stops reading, or the
        connection is to close.  A request left unfinished stands in the
        server's ``_reading`` from now until it is whole."""
        server, requests = self.server, self.requests
        while True:
            try:
                request = requests.next_request()
            except _BadFraming as exc:
                # Where this request ends is unknown, so the stream
                # cannot be resynchronised: reply, then hang up.
                self._refuse(str(exc))
                return
            if request is None:
                if requests.buffer:
                    server._reading.setdefault(self, time.monotonic())
                return
            if server._reading:
                server._reading.pop(self, None)
            method, path, headers, body = request
            self._write(*server._dispatch(method, path, headers, body))
            if headers.get("connection", "").lower() == "close":
                self._close()
                return
            if (not requests.buffer or self.paused
                    or self.transport.is_closing()):
                return

    def _write(self, status: int, headers: dict[str, str],
               payload: bytes) -> None:
        """Emit one HTTP/1.1 response with Content-Length framing."""
        if headers == _JSON_HEADERS:
            block = _JSON_BLOCK
        else:
            block = ("".join(f"\r\n{k}: {v}" for k, v in headers.items())
                     + "\r\n\r\n").encode("latin-1")
        self.transport.write(b"%b%d%b%b" % (
            _STATUS_PREFIX[status], len(payload), block, payload))

    def _refuse(self, detail: str) -> None:
        """Answer 400 ``bad_request`` + ``Connection: close``, hang up."""
        server = self.server
        status, headers, payload = server._error("bad_request", detail)
        headers["Connection"] = "close"
        server.metrics.counter("gateway.http_requests_total").inc()
        server.metrics.counter("gateway.http_errors_total").inc()
        self._write(status, headers, payload)
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
    #: Next-contact hint handed to clients in every scheduler reply.
    request_delay_s: float = 0.0
    #: Lease deadline for live results (sent_at + delay_bound).
    delay_bound_s: float = 30.0
    #: Cap on results handed out per scheduler RPC.
    max_results_per_rpc: int = 2
    #: ``Retry-After`` value (seconds) sent with 503 refusals.
    retry_after_s: float = 0.5

    def server_config(self) -> ServerConfig:
        """The shared-core :class:`ServerConfig` this front end implies."""
        return ServerConfig(
            request_delay_s=self.request_delay_s,
            delay_bound_s=self.delay_bound_s,
            max_results_per_rpc=self.max_results_per_rpc,
            feeder_cache_size=_FEEDER_CACHE_SIZE,
        )


class GatewayState:
    """The transport-independent state a gateway serves (and can adopt).

    Bundles the shared scheduler core, the blob store, and the job
    tracker.  A restarted :class:`GatewayServer` constructed with the old
    server's state picks up every in-flight lease: results stay
    IN_PROGRESS, deadlines keep counting on the same monotonic clock, and
    clients holding assignments can upload/report as if nothing happened.
    """

    def __init__(self, config: GatewayConfig | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        """Fresh core + store + tracker on a wall-clock monotonic clock."""
        self.config = config or GatewayConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        t0 = time.monotonic()
        # Nothing on the gateway reads the records back: count every kind
        # and serve taps, store none (a server runs for days).
        self.core = SchedulerCore(config=self.config.server_config(),
                                  tracer=Tracer(keep=lambda kind: False),
                                  metrics=self.metrics,
                                  clock=lambda: time.monotonic() - t0)
        self.store = BlobStore()
        self.core.publish_input = self.store.publish
        self.jobs = GatewayJobTracker(self.core, self.store)


class GatewayServer:
    """Asyncio HTTP front end over a :class:`GatewayState`."""

    def __init__(self, config: GatewayConfig | None = None,
                 state: GatewayState | None = None) -> None:
        """A stopped server; call :meth:`start` inside a running loop."""
        self.config = config or (state.config if state is not None
                                 else GatewayConfig())
        self.state = state if state is not None else GatewayState(self.config)
        self.metrics = self.state.metrics
        self.core = self.state.core
        self.store = self.state.store
        self.jobs = self.state.jobs
        self.port: int | None = None
        self._connections: set[_Connection] = set()
        #: Each connection with a request begun and not yet whole ->
        #: ``time.monotonic()`` of when its first bytes were looked at.
        self._reading: dict[_Connection, float] = {}
        self._server: asyncio.base_events.Server | None = None
        self._daemon_task: asyncio.Task | None = None
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
    def in_thread(cls, config: GatewayConfig | None = None,
                  state: GatewayState | None = None) -> "GatewayHandle":
        """Run a gateway on a fresh event loop in a daemon thread.

        The blocking-world entry point used by doctests, tests, and
        ``repro loadgen`` without ``--address``: returns a
        :class:`GatewayHandle` once the listener is bound.
        """
        server = cls(config=config, state=state)
        started = threading.Event()
        loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        thread = threading.Thread(target=_run, name="gateway", daemon=True)
        thread.start()
        started.wait()
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
                                retry_after_s=self.config.retry_after_s)
        except (ValueError, KeyError, TypeError) as exc:
            reply = self._error("bad_request", f"{type(exc).__name__}: {exc}")
        histogram.observe(time.perf_counter() - t0)
        self.metrics.counter("gateway.http_requests_total").inc()
        if reply[0] >= 400:
            self.metrics.counter("gateway.http_errors_total").inc()
        return reply

    @staticmethod
    def _json(status: int, payload: _t.Any) -> _Reply:
        """A JSON response triple."""
        return (status, {"Content-Type": "application/json"},
                protocol.dumps(payload))

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
        host_id = next((rec.id for rec in self.core.db.hosts.values()
                        if rec.name == req["name"]), None)
        if host_id is None:
            host_id = self.core.register_host(
                req["name"], float(req["flops"]),
                supports_mr=req.get("supports_mr", True)).id
        return self._json(200, {
            "host_id": host_id,
            "request_delay_s": self.config.request_delay_s})

    def _rpc_scheduler(self, _arg: str, _headers: dict, req: dict) -> _Reply:
        """``POST /rpc/scheduler``: reports in, assignments out."""
        if req["host_id"] not in self.core.db.hosts:
            return self._error("unknown_host",
                               f"host {req['host_id']} not registered")
        reports = []
        for rep in req.get("reports", []):
            res = self.core.db.results.get(rep["result_id"])
            if res is None or res.host_id != req["host_id"] or \
                    res.reported_at is not None:
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
        return self._json(200, self._encode_reply(reply))

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
        if result_id not in self.core.db.results:
            return self._error("unknown_result",
                               f"result {result_id} was never issued")
        claimed = headers.get(protocol.CHECKSUM_HEADER.lower())
        actual = protocol.checksum(body)
        if claimed is not None and claimed != actual:
            self.metrics.counter("gateway.bad_checksum_total").inc()
            return self._error("checksum_mismatch",
                               f"claimed {claimed}, got {actual}")
        self.store.put(name, body)
        self.core.record_upload(result_id)
        self.metrics.counter("gateway.uploads_total").inc()
        return self._json(200, {"received": True, "result_id": result_id,
                                "name": name, "size": len(body)})

    # -- job plane -------------------------------------------------------------
    def _job_submit(self, _arg: str, _headers: dict, request: dict) -> _Reply:
        """``POST /jobs``: generate corpus, split, submit map workunits."""
        # A taken name or unknown app raises ValueError: 400, see _dispatch.
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
            "jobs": {name: WIRE_STATE[job.phase]
                     for name, job in self.jobs.jobs.items()},
        })

    def _healthz(self, _arg: str, _headers: dict, _body: bytes) -> _Reply:
        """``GET /healthz``: liveness and the protocol version."""
        return self._json(200, {"ok": True,
                                "version": protocol.PROTOCOL_VERSION})


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
}


class GatewayHandle:
    """Blocking-world handle to a gateway running on a background thread.

    What :meth:`GatewayServer.in_thread` returns: thread-safe job
    submission, result reclaim, and shutdown for doctests, pytest, and
    the self-hosting load harness.
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

    def submit_job(self, name: str, app: str, data: bytes, n_maps: int,
                   n_reducers: int, replication: int = 1,
                   quorum: int = 1) -> MapReduceJob:
        """Submit a job with explicit input bytes (thread-safe)."""

        async def _submit() -> MapReduceJob:
            return self.server.jobs.submit_data(
                name, app, data, n_maps=n_maps, n_reducers=n_reducers,
                replication=replication, quorum=quorum)

        return asyncio.run_coroutine_threadsafe(_submit(),
                                                self.loop).result(30.0)

    def result(self, name: str, timeout: float = 60.0) -> dict:
        """Block until job *name* finishes, then return its merged output."""
        job = self.server.jobs.jobs[name]
        if not job.done.wait(timeout):
            raise TimeoutError(f"job {name!r} still running "
                               f"after {timeout}s")
        if job.done.exception is not None:
            raise job.done.exception
        return decode_payload(self.server.jobs.outputs[name])

    def close(self) -> None:
        """Stop the server and join its thread (state is preserved)."""
        if not self.loop.is_closed():
            asyncio.run_coroutine_threadsafe(self.server.stop(),
                                             self.loop).result(10.0)
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
