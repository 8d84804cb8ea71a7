"""Load harness: replay simulated client schedules against a live gateway.

Reuses :func:`repro.volunteers.traces.diurnal_trace` — the same home-PC
availability shapes the simulator churns volunteers with — to derive
each load client's RPC schedule: a 7-day diurnal trace is compressed
onto the harness duration, and the client only polls inside its ON
windows.  Hundreds of such clients run concurrently on one asyncio loop
(each with its own keep-alive connection), every scheduler RPC's
wall-clock latency is recorded both into the gateway's
:class:`repro.obs.MetricsRegistry` and as raw samples for exact
percentiles, and the run ends with the three gates the CI job enforces:

- **p99 latency**: exact p99 of scheduler-RPC latency under the
  checked-in budget (``benchmarks/BENCH_gateway_baseline.json``);
- **no lost/duplicated results**: every workunit assimilated exactly
  once (``assimilated == n_maps + n_reducers`` per job);
- **oracle equivalence**: the reclaimed payload is byte-identical to a
  :class:`repro.runtime.engine.LocalRunner` run over the same corpus.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import time
import typing as _t

import numpy as np

from ..runtime.engine import LocalRunner
from ..volunteers.traces import AvailabilityTrace, diurnal_trace
from ..workloads import generate_corpus
from . import protocol
from .client import execute_task, retry_delay
from .jobs import canonical_payload, resolve_app
from .server import GatewayConfig, GatewayServer


@dataclasses.dataclass(slots=True)
class LoadConfig:
    """Knobs for one load-harness run."""

    n_clients: int = 500
    #: Wall-clock length the compressed schedules are replayed over.
    duration_s: float = 8.0
    #: Scheduler polls each client attempts inside its ON windows.
    polls_per_client: int = 4
    seed: int = 1
    #: Job the fleet computes while generating load.
    app: str = "wordcount"
    corpus_bytes: int = 200_000
    n_maps: int = 12
    n_reducers: int = 6
    replication: int = 2
    quorum: int = 2
    #: Extra wall-clock grace after schedules finish for the job to seal.
    drain_s: float = 20.0


@dataclasses.dataclass(slots=True)
class LoadReport:
    """Everything a load run measured, JSON-ready via :meth:`to_dict`."""

    n_clients: int
    rpcs: int
    tasks_done: int
    errors: int
    duplicate_reports: int
    lost_results: int
    duplicated_results: int
    equivalent: bool
    wall_s: float
    latency_ms: dict[str, float]
    job_state: str

    def to_dict(self) -> dict:
        """JSON document in the repo's ``BENCH_*.json`` shape."""
        return {"kind": "gateway", **dataclasses.asdict(self)}

    @property
    def clean(self) -> bool:
        """True when the correctness gates (not latency) all hold."""
        return (self.errors == 0 and self.lost_results == 0
                and self.duplicated_results == 0 and self.equivalent
                and self.job_state == "done")


def client_schedule(index: int, config: LoadConfig) -> list[float]:
    """RPC instants (seconds into the run) for load client *index*.

    A 7-day diurnal availability trace is generated per client and
    compressed onto ``[0, duration_s)``; poll instants are sampled
    uniformly inside the scaled ON windows, so the fleet's arrival
    pattern inherits the evening/weekend bursts of the simulated
    volunteer population instead of being a flat Poisson front.
    """
    rng = np.random.default_rng(config.seed * 100_003 + index)
    trace: AvailabilityTrace = diurnal_trace(f"load-{index}", days=7,
                                             rng=rng)
    horizon = 7 * 24 * 3600.0
    scale = config.duration_s / horizon
    instants: list[float] = []
    spans = [(s * scale, e * scale) for s, e in trace.intervals]
    for _ in range(config.polls_per_client):
        start, end = spans[int(rng.integers(len(spans)))]
        instants.append(float(rng.uniform(start, end)))
    return sorted(instants)


class _AsyncConn:
    """One keep-alive asyncio HTTP/1.1 connection to the gateway."""

    def __init__(self, host: str, port: int) -> None:
        """A closed connection; opens lazily on first request."""
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: dict[str, str] | None = None
                      ) -> tuple[int, dict[str, str], bytes]:
        """One request/response exchange; reconnects once on failure."""
        for attempt in (0, 1):
            if self._writer is None:
                await self._open()
            try:
                return await self._exchange(method, path, body,
                                            headers or {})
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise
        raise ConnectionError("unreachable")  # pragma: no cover

    async def _exchange(self, method: str, path: str, body: bytes,
                        headers: dict[str, str]
                        ) -> tuple[int, dict[str, str], bytes]:
        assert self._reader is not None and self._writer is not None
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {self.host}:{self.port}",
                 f"Content-Length: {len(body)}"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n")
                           .encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed connection")
        status = int(status_line.split()[1])
        resp_headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            resp_headers[name.strip().lower()] = value.strip()
        length = int(resp_headers.get("content-length", "0"))
        payload = (await self._reader.readexactly(length)
                   if length else b"")
        return status, resp_headers, payload


class _FleetClient:
    """One simulated volunteer identity inside the async fleet."""

    def __init__(self, index: int, host: str, port: int,
                 config: LoadConfig, samples: list[float],
                 errors: list[str]) -> None:
        """Load client *index* recording into shared sample/error lists."""
        self.index = index
        self.conn = _AsyncConn(host, port)
        self.config = config
        self.samples = samples
        self.errors = errors
        self.rpcs = 0
        self.tasks_done = 0
        self._reports: list[dict] = []
        self._rng = random.Random(config.seed * 7 + index)

    async def _json(self, method: str, path: str,
                    payload: _t.Any = None) -> _t.Any:
        body = protocol.dumps(payload) if payload is not None else b""
        for attempt in range(8):
            status, headers, data = await self.conn.request(
                method, path, body, {"Content-Type": "application/json"})
            if status == 503:
                doc = protocol.loads(data)
                await asyncio.sleep(retry_delay(
                    self._rng, attempt, float(doc.get("retry_after_s", 0.0))))
                continue
            if status >= 400:
                raise RuntimeError(f"{path}: HTTP {status} "
                                   f"{data[:120]!r}")
            return protocol.loads(data)
        raise RuntimeError(f"{path}: retries exhausted on 503")

    async def run(self, start: float) -> None:
        """Replay this client's schedule; execute any assigned work."""
        try:
            host_id = (await self._json("POST", "/rpc/register", {
                "name": f"load-{self.index}", "flops": 1e9,
                "supports_mr": True}))["host_id"]
            for instant in client_schedule(self.index, self.config):
                delay = start + instant - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                await self._poll(host_id)
            # Flush any pending reports so no result is lost at the end.
            while self._reports:
                await self._poll(host_id)
        except Exception as exc:  # noqa: BLE001 — gate counts any failure
            self.errors.append(f"client {self.index}: {exc}")

    async def _poll(self, host_id: int) -> None:
        """One scheduler RPC (timed) plus execution of its assignments."""
        t0 = time.perf_counter()
        reply = await self._json("POST", "/rpc/scheduler", {
            "host_id": host_id, "work_req_s": 1.0,
            "reports": self._reports})
        self.samples.append(time.perf_counter() - t0)
        self.rpcs += 1
        self._reports = []
        for task in reply["assignments"]:
            report = await asyncio.get_running_loop().run_in_executor(
                None, self._execute_blocking, task)
            self._reports.append(report)
            if report["success"]:
                self.tasks_done += 1

    def _execute_blocking(self, task: dict) -> dict:
        """Compute + upload one task on a worker thread (own connection)."""
        from .client import GatewayClient
        client = GatewayClient(f"{self.conn.host}:{self.conn.port}")
        try:
            return execute_task(client, task)
        except Exception:  # noqa: BLE001 — report failure, don't lose lease
            return {"result_id": task["result_id"], "success": False,
                    "elapsed_s": 0.0}
        finally:
            client.close()


def oracle_payload(config: LoadConfig) -> bytes:
    """The simulated-run oracle: LocalRunner over the same corpus/split."""
    data = generate_corpus(config.corpus_bytes, seed=config.seed)
    runner = LocalRunner(resolve_app(config.app), n_maps=config.n_maps,
                         n_reducers=config.n_reducers)
    return canonical_payload(runner.run(data).output)


def percentiles_ms(samples: _t.Sequence[float]) -> dict[str, float]:
    """Exact p50/p90/p99/max of *samples* (seconds), in milliseconds."""
    if not samples:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    arr = np.sort(np.asarray(samples, dtype=float)) * 1000.0
    def pick(q: float) -> float:
        return float(arr[min(len(arr) - 1, int(q * len(arr)))])
    return {"p50": pick(0.50), "p90": pick(0.90), "p99": pick(0.99),
            "max": float(arr[-1])}


async def _run_fleet(address: str, config: LoadConfig,
                     samples: list[float], errors: list[str]
                     ) -> tuple[int, int]:
    """Drive the whole fleet; returns (total_rpcs, total_tasks_done)."""
    host, _, port_s = address.partition(":")
    clients = [_FleetClient(i, host, int(port_s), config, samples, errors)
               for i in range(config.n_clients)]
    start = time.monotonic()
    await asyncio.gather(*(c.run(start) for c in clients))
    await asyncio.gather(*(c.conn.close() for c in clients))
    return sum(c.rpcs for c in clients), sum(c.tasks_done for c in clients)


def run_loadgen(address: str | None = None,
                config: LoadConfig | None = None,
                echo: _t.Callable[[str], None] | None = None
                ) -> LoadReport:
    """Run the full harness; self-hosts a gateway when *address* is None.

    Submits the benchmark job, replays every client schedule, drains
    stragglers with dedicated cleanup volunteers until the job seals (or
    the drain budget runs out), and returns the gated :class:`LoadReport`.
    """
    config = config or LoadConfig()
    say = echo or (lambda _msg: None)
    handle = None
    if address is None:
        handle = GatewayServer.in_thread(GatewayConfig(
            request_delay_s=0.0, delay_bound_s=5.0))
        address = handle.address
        say(f"self-hosted gateway on {address}")
    from .client import GatewayClient, run_volunteer
    control = GatewayClient(address)
    job_name = f"loadgen-{config.seed}"
    control.submit_job(job_name, config.app, config.corpus_bytes,
                       config.seed, n_maps=config.n_maps,
                       n_reducers=config.n_reducers,
                       replication=config.replication,
                       quorum=config.quorum)
    say(f"submitted {job_name}: {config.n_maps} maps x "
        f"{config.replication} replicas, {config.n_reducers} reduces")

    samples: list[float] = []
    client_errors: list[str] = []
    t0 = time.perf_counter()
    rpcs, tasks_done = asyncio.run(
        _run_fleet(address, config, samples, client_errors))
    say(f"fleet done: {rpcs} RPCs, {tasks_done} tasks, "
        f"{len(client_errors)} client errors")

    # Drain: deadline-expired leases are reissued by the shared
    # transitioner; cleanup volunteers absorb them until the job seals.
    deadline = time.monotonic() + config.drain_s
    status = control.job_status(job_name)
    sweep = 0
    while status["state"] == "running" and time.monotonic() < deadline:
        sweep += 1
        run_volunteer(address, name=f"drain-{config.seed}-{sweep}",
                      poll_s=0.05, idle_limit=10)
        status = control.job_status(job_name)
    wall = time.perf_counter() - t0

    expected = config.n_maps + config.n_reducers
    assimilated = status["assimilated"]
    equivalent = False
    if status["state"] == "done":
        equivalent = control.job_output(job_name) == oracle_payload(config)
    server_counters = control.status()["counters"]
    control.close()
    if handle is not None:
        handle.close()
    return LoadReport(
        n_clients=config.n_clients,
        rpcs=rpcs,
        tasks_done=tasks_done,
        errors=len(client_errors),
        duplicate_reports=int(server_counters.get(
            "gateway.duplicate_reports_total", 0)),
        lost_results=max(0, expected - assimilated),
        duplicated_results=max(0, assimilated - expected),
        equivalent=equivalent,
        wall_s=wall,
        latency_ms=percentiles_ms(samples),
        job_state=status["state"],
    )


def write_report(report: LoadReport, path: str) -> None:
    """Write *report* as a ``BENCH_gateway.json`` document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
