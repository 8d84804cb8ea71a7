"""Load harness: replay simulated client schedules against a live gateway.

Reuses :func:`repro.volunteers.traces.diurnal_trace` — the same home-PC
availability shapes the simulator churns volunteers with — to derive
each load client's RPC schedule: a 7-day diurnal trace is compressed
onto the harness duration, and the client only polls inside its ON
windows.  Hundreds of such clients run concurrently, each a thread
driving the one volunteer cycle (:class:`repro.gateway.client.Volunteer`)
over its own keep-alive :class:`~repro.gateway.client.GatewayClient`, so
the fleet speaks the wire — retries and backoff included — exactly as a
real volunteer does.  Every scheduler RPC's wall-clock latency is
recorded both into the gateway's :class:`repro.obs.MetricsRegistry` and
as raw samples for exact percentiles.  The run's record carries them
with one verdict, :attr:`LoadReport.ok`: no client error, every
workunit assimilated exactly once, the job done, and a payload
byte-identical to a :class:`repro.runtime.engine.LocalRunner` run over
the same corpus.  ``benchmarks/check_scale_regression.py --kind
gateway`` holds the p99 to its checked-in budget.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
import typing as _t

import numpy as np

from ..runtime.engine import LocalRunner
from ..volunteers.traces import diurnal_trace
from ..workloads import generate_corpus
from .client import GatewayClient, Volunteer, VolunteerStats, run_volunteer
from .jobs import canonical_payload, resolve_app
from .server import GatewayConfig, GatewayServer


@dataclasses.dataclass(slots=True)
class LoadConfig:
    """Knobs for one load-harness run."""

    n_clients: int = 500
    #: Wall-clock length the compressed schedules are replayed over.
    duration_s: float = 8.0
    seed: int = 1
    #: Shape of the job the fleet computes while generating load.
    n_maps: int = 12
    n_reducers: int = 6


#: Scheduler polls each client attempts inside its ON windows.
POLLS_PER_CLIENT = 4
#: The job the fleet computes: app, corpus size, replicas and quorum.
APP = "wordcount"
CORPUS_BYTES = 200_000
REPLICATION = 2
QUORUM = 2
#: Extra wall-clock grace after schedules finish for the job to seal.
DRAIN_S = 20.0


@dataclasses.dataclass(slots=True)
class LoadReport:
    """Everything a load run measured; :meth:`record` is its run record."""

    config: LoadConfig
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

    @property
    def ok(self) -> bool:
        """True when the correctness gates (not latency) all hold."""
        return (self.errors == 0 and self.lost_results == 0
                and self.duplicated_results == 0 and self.equivalent
                and self.job_state == "done")

    def record(self) -> dict[str, _t.Any]:
        """The run record (:data:`repro.wire.RECORD_SCHEMAS`) of the load
        run: its config as the spec, the rest of the report as the
        outcome."""
        outcome = dataclasses.asdict(self)
        spec = outcome.pop("config")
        return {"command": "loadgen", "seed": spec.pop("seed"),
                "wall_s": outcome.pop("wall_s"), "ok": self.ok,
                "spec": spec, "outcome": outcome, "audit": None,
                "faults": []}


def client_schedule(index: int, config: LoadConfig) -> list[float]:
    """RPC instants (seconds into the run) for load client *index*.

    A 7-day diurnal availability trace is generated per client and
    compressed onto ``[0, duration_s)``; poll instants are sampled
    uniformly inside the scaled ON windows, so the fleet's arrival
    pattern inherits the evening/weekend bursts of the simulated
    volunteer population instead of being a flat Poisson front.
    """
    rng = np.random.default_rng(config.seed * 100_003 + index)
    trace = diurnal_trace(f"load-{index}", days=7, rng=rng)
    scale = config.duration_s / (7 * 24 * 3600.0)
    instants: list[float] = []
    spans = [(s * scale, e * scale) for s, e in trace.intervals]
    for _ in range(POLLS_PER_CLIENT):
        start, end = spans[int(rng.integers(len(spans)))]
        instants.append(float(rng.uniform(start, end)))
    return sorted(instants)


def _replay_client(index: int, address: str, config: LoadConfig,
                   start: float, samples: list[float], errors: list[str],
                   fleet: list[VolunteerStats]) -> None:
    """Load client *index*, on its own thread and connection: replay its
    schedule from monotonic time *start*, one volunteer cycle an instant."""
    client = GatewayClient(address,
                           rng=random.Random(config.seed * 7 + index))
    try:
        volunteer = Volunteer(client, f"load-{index}")
        fleet.append(volunteer.stats)
        instants = client_schedule(index, config)
        # Keep cycling past the schedule while reports are pending, so no
        # result is lost at the end.
        while instants or volunteer.reports:
            if instants:
                time.sleep(max(0.0, start + instants.pop(0)
                               - time.monotonic()))
            volunteer.cycle()
            samples.append(volunteer.rpc_s)
    except Exception as exc:  # noqa: BLE001 — gate counts any failure
        errors.append(f"client {index}: {exc}")
    finally:
        client.close()


def oracle_payload(config: LoadConfig) -> bytes:
    """The simulated-run oracle: LocalRunner over the same corpus/split."""
    data = generate_corpus(CORPUS_BYTES, seed=config.seed)
    runner = LocalRunner(resolve_app(APP), n_maps=config.n_maps,
                         n_reducers=config.n_reducers)
    return canonical_payload(runner.run(data).output)


def percentiles_ms(samples: _t.Sequence[float]) -> dict[str, float]:
    """Exact p50/p90/p99/max of *samples* (seconds), in milliseconds."""
    arr = np.sort(np.asarray(samples or [0.0], dtype=float)) * 1000.0
    def pick(q: float) -> float:
        return float(arr[min(len(arr) - 1, int(q * len(arr)))])
    return {"p50": pick(0.50), "p90": pick(0.90), "p99": pick(0.99),
            "max": float(arr[-1])}


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
        handle = GatewayServer.in_thread(GatewayConfig(delay_bound_s=5.0))
        address = handle.address
        say(f"self-hosted gateway on {address}")
    control = GatewayClient(address)
    job_name = f"loadgen-{config.seed}"
    control.submit_job(job_name, APP, CORPUS_BYTES, config.seed,
                       n_maps=config.n_maps, n_reducers=config.n_reducers,
                       replication=REPLICATION, quorum=QUORUM)
    say(f"submitted {job_name}: {config.n_maps} maps x "
        f"{REPLICATION} replicas, {config.n_reducers} reduces")

    samples: list[float] = []
    client_errors: list[str] = []
    fleet: list[VolunteerStats] = []
    start = time.monotonic()
    threads = [threading.Thread(
        target=_replay_client,
        args=(index, address, config, start, samples, client_errors, fleet))
        for index in range(config.n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rpcs = sum(stats.rpcs for stats in fleet)
    tasks_done = sum(stats.tasks_done for stats in fleet)
    say(f"fleet done: {rpcs} RPCs, {tasks_done} tasks, "
        f"{len(client_errors)} client errors")

    # Drain: deadline-expired leases are reissued by the shared
    # transitioner; cleanup volunteers absorb them until the job seals.
    deadline = time.monotonic() + DRAIN_S
    status = control.job_status(job_name)
    sweep = 0
    while status["state"] == "running" and time.monotonic() < deadline:
        sweep += 1
        run_volunteer(address, name=f"drain-{config.seed}-{sweep}",
                      poll_s=0.05, idle_limit=10)
        status = control.job_status(job_name)
    wall = time.monotonic() - start

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
        config=config,
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

