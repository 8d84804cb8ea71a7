"""The live asyncio HTTP gateway: real volunteers against the shared core.

A single-threaded :mod:`asyncio` server (stdlib only — the HTTP/1.1
framing is hand-rolled on ``asyncio.start_server`` streams) exposing the
pull protocol of :mod:`repro.gateway.protocol`:

- control plane: ``/rpc/register`` and ``/rpc/scheduler`` delegate to the
  *same* :class:`repro.boinc.server.SchedulerCore` state machine the
  simulator drives, with a wall-clock ``clock`` injected instead of
  ``sim.now``;
- data plane: ``/data/{name}`` downloads and ``/upload/...`` uploads hit
  a :class:`repro.gateway.files.BlobStore` with CRC32 checksum headers;
- job plane: ``/jobs`` submission, status polling, and output reclaim
  via :class:`repro.gateway.jobs.GatewayJobTracker`.

Because the event loop is single-threaded and every handler is
synchronous between awaits, core/state mutations need no locking — the
same property the simulator gets from cooperative scheduling.  A daemon
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


class _BadFraming(Exception):
    """A request whose extent cannot be trusted: answer 400, then close."""


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
        self.connections_active = 0
        #: Handler task of each connection with a request begun and not
        #: yet complete -> ``time.monotonic()`` of the request's first byte.
        self._reading: dict[asyncio.Task, float] = {}
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
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._daemon_task = asyncio.get_running_loop().create_task(
            self._daemon_loop())

    async def stop(self) -> None:
        """Stop listening and cancel the daemon task (state survives)."""
        if self._daemon_task is not None:
            self._daemon_task.cancel()
            try:
                await self._daemon_task
            except asyncio.CancelledError:
                pass
            self._daemon_task = None
        if self._server is not None:
            self._server.close()
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

    # -- HTTP framing ----------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Serve one keep-alive connection until EOF or ``Connection: close``."""
        self.connections_active += 1
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadFraming as exc:
                    # Where this request ends is unknown, so the stream
                    # cannot be resynchronised: reply, then hang up.
                    reply = self._error("bad_request", str(exc))
                    reply[1]["Connection"] = "close"
                    self.metrics.counter("gateway.http_requests_total").inc()
                    self.metrics.counter("gateway.http_errors_total").inc()
                    await self._write_response(writer, *reply)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                await self._write_response(
                    writer, *self._dispatch(method, path, headers, body))
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            self.metrics.counter("gateway.disconnects_total").inc()
        finally:
            self.connections_active -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """One request or header line, bounded by ``_MAX_HEADER_LINE``."""
        try:
            line = await reader.readline()
        except ValueError:  # over the stream's own (larger) limit
            line = None
        if line is None or len(line) > _MAX_HEADER_LINE:
            raise _BadFraming(
                f"request or header line over {_MAX_HEADER_LINE} bytes")
        return line

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one HTTP/1.1 request; None on clean EOF between requests.
        Only the wait for its first byte (an idle keep-alive connection)
        is unbounded: from then on this task stands in ``_reading``, where
        :meth:`_expire_stalled_reads` finds a request that takes too long."""
        line = await reader.read(1)
        if not line:
            return None
        task = asyncio.current_task()
        self._reading[task] = time.monotonic()
        try:
            if line != b"\n":
                line += await self._read_line(reader)
            parts = line.decode("latin-1").split()
            if len(parts) != 3:
                raise _BadFraming(f"malformed request line {line[:64]!r}")
            method, target, _version = parts
            headers: dict[str, str] = {}
            for _ in range(_MAX_HEADERS + 1):
                line = await self._read_line(reader)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            else:
                raise _BadFraming(f"more than {_MAX_HEADERS} header lines")
            raw_length = headers.get("content-length", "0")
            try:
                length = int(raw_length)
            except ValueError:
                length = -1
            if not 0 <= length <= _MAX_BODY:
                raise _BadFraming(
                    f"Content-Length {raw_length[:32]!r} is not an integer in "
                    f"0..{_MAX_BODY}")
            body = await reader.readexactly(length) if length else b""
            return method, target.split("?", 1)[0], headers, body
        except asyncio.CancelledError:
            if task in self._reading:
                raise  # not the sweep's doing
            task.uncancel()
            raise _BadFraming(f"request incomplete {_READ_TIMEOUT_S:g}s "
                              f"after its first byte") from None
        finally:
            self._reading.pop(task, None)

    def _expire_stalled_reads(self) -> None:
        """Interrupt each request still incomplete ``_READ_TIMEOUT_S`` after
        its first byte (its read raises :class:`_BadFraming`).  One sweep a
        daemon tick, not a timer a request: arming ``asyncio.timeout`` 8,000
        times doubled what reading a no-work poll costs."""
        overdue = time.monotonic() - _READ_TIMEOUT_S
        for task in [t for t, t0 in self._reading.items() if t0 <= overdue]:
            del self._reading[task]
            task.cancel()

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, headers: dict[str, str],
                              payload: bytes) -> None:
        """Emit one HTTP/1.1 response with Content-Length framing."""
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  422: "Unprocessable Entity",
                  503: "Service Unavailable"}.get(status, "OK")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Length: {len(payload)}"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

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
