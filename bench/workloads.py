"""The seven benchmark workloads: fixed work, built from ``--seed``.

Each ``run_*`` function performs ONE repetition inside the child process
that :mod:`rep` starts: it builds its inputs through the public API,
times the fixed work, checks the output, and returns a flat result dict
(see :func:`rep.main`).  Sizes live in :data:`WORKLOADS`; ``quick``
variants exist only for the self-check.

Every workload is a closed loop — the simulator advances as fast as the
host allows, the campaign plane keeps ``nproc`` cells in flight, and the
gateway clients send the next request when the previous reply arrives.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import pathlib
import random
import resource
import socket
import subprocess
import sys
import threading
import time
import typing as _t

from measure import (Region, SpeedProbe, mean_slowdown, percentile,
                     proc_cpu_s, proc_status_mb, self_rss_mb)

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIB = 1024.0 * 1024.0

_now = time.perf_counter


# -- shapes -------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SimShape:
    """One simulated deployment and the jobs submitted to it."""

    volunteers: int
    #: BOINC-MR clients with inter-client transfers, or original BOINC
    #: clients moving every byte through the project server.
    boinc_mr: bool
    #: ``(down_bps, up_bps, latency_s)`` of every volunteer / the server.
    volunteer_link: tuple[float, float, float]
    server_link: tuple[float, float, float]
    n_jobs: int
    n_maps: int
    n_reducers: int
    input_bytes: float
    backoff_max_s: float = 600.0
    #: Run to this simulated time (longer only if a job is still open):
    #: the fleet's polling, not the job's makespan, then fixes the work.
    horizon_s: float | None = None
    #: Attach spans + probes and export a Chrome trace in the timed region.
    observed: bool = False
    #: Seconds of wall time lost per second the host steals (summed over
    #: the vCPUs; see ``measure.at_nominal_speed``): one chain of work on
    #: one vCPU loses all of it.
    stall_per_stolen_s: float = 1.0


@dataclasses.dataclass(frozen=True)
class CampaignShape:
    """A Table I campaign: ``n_seeds`` seeds x 9 rows at ``workers`` wide."""

    n_seeds: int
    workers: int = 2
    null_cells: int = 64

    @property
    def stall_per_stolen_s(self) -> float:
        """Independent cells side by side: a second stolen from one of
        the ``workers`` vCPUs holds the campaign up by 1/workers."""
        return 1.0 / self.workers


@dataclasses.dataclass(frozen=True)
class RpcShape:
    """No-work scheduler polls against a ``repro serve`` subprocess."""

    hosts: int
    polls: int
    connections: int = 2
    #: Every request wakes the halted partner vCPU twice; when the host is
    #: slow to hand a vCPU back, the chain loses more than the stolen time
    #: itself (1.25 fits three sets of ten runs; 1.0 and 1.5 both do worse).
    stall_per_stolen_s: float = 1.25


@dataclasses.dataclass(frozen=True)
class JobShape:
    """One live word-count job computed by real volunteer threads."""

    corpus_bytes: int
    n_maps: int
    n_reducers: int
    volunteers: int = 2
    replication: int = 2
    quorum: int = 2
    #: The volunteers' compute holds one vCPU and the server idles on the
    #: other, so not every stolen second stalls the job (0.75 keeps the
    #: median level across four sets of ten runs at 3% to 33% steal).
    stall_per_stolen_s: float = 0.75


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named workload: why it exists, its shape, its smoke-test shape."""

    why: str
    shape: _t.Any
    quick: _t.Any


ADSL = (16e6, 1e6, 0.020)
LAN = (100e6, 100e6, 0.0005)
GBIT = (1e9, 1e9, 0.002)

_IDLE = SimShape(volunteers=400, boinc_mr=True, volunteer_link=ADSL,
                 server_link=GBIT, n_jobs=1, n_maps=40, n_reducers=4,
                 input_bytes=400e6, backoff_max_s=60.0, horizon_s=1400.0)
_IDLE_QUICK = dataclasses.replace(_IDLE, volunteers=60, n_maps=8,
                                  n_reducers=2, input_bytes=80e6,
                                  horizon_s=900.0)

WORKLOADS: dict[str, Workload] = {
    "sim_scale_out": Workload(
        "ADSL BOINC-MR fleet, 40x40 shuffle between clients: many small "
        "link components, so net allocator and core peer downloads lead",
        SimShape(volunteers=160, boinc_mr=True, volunteer_link=ADSL,
                 server_link=GBIT, n_jobs=1, n_maps=40, n_reducers=40,
                 input_bytes=200e6, backoff_max_s=120.0),
        SimShape(volunteers=30, boinc_mr=True, volunteer_link=ADSL,
                 server_link=GBIT, n_jobs=1, n_maps=10, n_reducers=10,
                 input_bytes=50e6, backoff_max_s=120.0)),
    "sim_server_hub": Workload(
        "original BOINC, every byte via the server link: one giant link "
        "component, the net allocator used the opposite way",
        SimShape(volunteers=60, boinc_mr=False, volunteer_link=LAN,
                 server_link=LAN, n_jobs=1, n_maps=60, n_reducers=4,
                 input_bytes=1e9),
        SimShape(volunteers=12, boinc_mr=False, volunteer_link=LAN,
                 server_link=LAN, n_jobs=1, n_maps=12, n_reducers=2,
                 input_bytes=2e8)),
    "sim_idle_fleet": Workload(
        "idle fleet: nearly every scheduler RPC is a no-work backoff poll, "
        "so sim kernel and boinc client lead and net must not matter",
        _IDLE, _IDLE_QUICK),
    "sim_idle_fleet_observed": Workload(
        "same inputs as sim_idle_fleet with spans, probes and trace export "
        "on: the cost of obs when it is used, against when it is not",
        dataclasses.replace(_IDLE, observed=True),
        dataclasses.replace(_IDLE_QUICK, observed=True)),
    "campaign_table1": Workload(
        "the paper's Table I grid through the campaign plane at width "
        "nproc: simulation-bound, guards the control-plane overhead",
        CampaignShape(n_seeds=1), CampaignShape(n_seeds=1, null_cells=8)),
    "gateway_rpc": Workload(
        "no-work scheduler polls on the live wire, smallest message: "
        "per-request framing, parse, validate and serialize dominate",
        RpcShape(hosts=100, polls=8000), RpcShape(hosts=20, polls=400)),
    "gateway_job": Workload(
        "a real word-count job through the live gateway by two volunteers: "
        "assign, report, validate, data plane and the map-reduce barrier",
        JobShape(corpus_bytes=1_000_000, n_maps=32, n_reducers=8),
        JobShape(corpus_bytes=100_000, n_maps=6, n_reducers=2)),
}


# -- simulated deployments ---------------------------------------------------------

def _trace_sha256(tracer: _t.Any) -> str:
    """Digest of every kept trace record: the run's exact fingerprint."""
    digest = hashlib.sha256()
    for rec in tracer.records:
        digest.update(repr((rec.time, rec.kind,
                            sorted(rec.fields.items()))).encode())
    return digest.hexdigest()


def _wrap_sim_layers(recorder: _t.Any, stats: dict) -> None:
    """Swap wrappers in around each simulated layer's entry points."""
    from repro.boinc.server import SchedulerCore
    from repro.net import flows
    from repro.obs import Counter, Gauge, Histogram
    from repro.sim import Tracer

    def seen_maxmin(args: tuple, _result: _t.Any, _dur: float) -> None:
        stats["maxmin_flows"] += len(args[0])

    def seen_rpc(args: tuple, reply: _t.Any, _dur: float) -> None:
        if args[1].reports or reply.assignments:
            stats["useful_rpcs"] += 1

    recorder.wrap(flows, "maxmin_rates", "net.maxmin_s", observe=seen_maxmin)
    for method in ("start_flow", "abort_flow", "recompute"):
        recorder.wrap(flows.FlowNetwork, method, "net.alloc_s")
    # The one funnel both transports' scheduler RPCs pass through.
    recorder.wrap(SchedulerCore, "_handle_rpc_now", "boinc.sched_handle_s",
                  observe=seen_rpc)
    recorder.wrap(Tracer, "record", "sim.trace_record_s", span=False)
    for cls, method in ((Counter, "inc"), (Gauge, "set"),
                        (Histogram, "observe")):
        recorder.wrap(cls, method, "obs.metric_s", span=False)


def run_sim(shape: SimShape, seed: int, recorder: _t.Any,
            probe: SpeedProbe) -> dict:
    """One repetition of a simulated workload."""
    from repro.boinc.client import ClientConfig
    from repro.core import (BoincMRConfig, CloudSpec, MapReduceJobSpec,
                            VolunteerCloud)
    from repro.net import LinkSpec
    from repro.obs import chrome_trace_json

    mr_config = (BoincMRConfig() if shape.boinc_mr else
                 BoincMRConfig(upload_map_outputs=True,
                               reduce_from_peers=False))
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed, mr_config=mr_config,
        client_config=ClientConfig(backoff_max_s=shape.backoff_max_s),
        server_link=LinkSpec(*shape.server_link)))
    t_add = _now()
    cloud.add_volunteers(shape.volunteers, mr=shape.boinc_mr,
                         link_spec=LinkSpec(*shape.volunteer_link))
    add_volunteers_s = _now() - t_add
    if shape.observed:
        cloud.attach_observability(spans=True, probes=True)
    jobs = [cloud.submit(MapReduceJobSpec(
        name=f"wordcount{j}", n_maps=shape.n_maps,
        n_reducers=shape.n_reducers, input_size=shape.input_bytes))
        for j in range(shape.n_jobs)]
    sim = cloud.sim
    until = (sim.timeout(shape.horizon_s) if shape.horizon_s is not None
             else sim.all_of([j.done for j in jobs]))
    stats: dict = collections.Counter()
    if recorder is not None:
        _wrap_sim_layers(recorder, stats)
        recorder.attach(sim)
    export, export_s = "", 0.0
    with Region(probe) as region:
        cloud.run_until(until)
        for job in jobs:
            if not job.done.triggered:  # a straggling seed outran the horizon
                cloud.run_until(job.done)
        if shape.observed:
            t_export = _now()
            export = chrome_trace_json(cloud.finish_observability())
            export_s = _now() - t_export
    if recorder is not None:
        sim.dispatch_hook = None
        recorder.unwrap_all()
    peak_rss = self_rss_mb()

    events = sim.dispatch_count
    finished = [j.makespan() for j in jobs if j.makespan() is not None]
    exact = {"sim.events": events,
             "sim.makespan_s": max(finished, default=0.0),
             "sim.peak_pending": sim.peak_pending,
             "sim.trace_records": len(cloud.tracer.records),
             "sim.trace_sha256": _trace_sha256(cloud.tracer)}
    attempted = sum(j.spec.n_maps + j.spec.n_reducers for j in jobs)
    completed = sum(j.maps_completed + j.reduces_completed for j in jobs
                    if j.done.triggered and j.done.exception is None)
    errors = [f"job {j.spec.name} ended in phase {j.phase.name}"
              for j in jobs if not (j.done.triggered
                                    and j.done.exception is None)]
    audit = cloud.audit()
    errors += [str(v) for v in audit.violations]
    layers = {"sim.events_per_s": events / region.wall_s,
              "core.add_volunteers_s": add_volunteers_s,
              "boinc.sched_rpcs": cloud.tracer.counts["sched.rpc"]}
    if shape.observed:
        layers.update({"obs.spans": len(cloud.span_builder.spans),
                       "obs.export_s": export_s,
                       "obs.export_bytes": len(export)})
    if recorder is not None:
        layers.update(_sim_layer_metrics(recorder, stats,
                                         region.wall_s - export_s))
    return {"region": region, "cpu_s": region.cpu_s, "peak_rss_mb": peak_rss,
            "attempted": attempted,
            "failed": attempted - completed + len(audit.violations),
            "errors": errors, "exact": exact, "layers": layers}


def _sim_layer_metrics(recorder: _t.Any, stats: dict, wall_s: float) -> dict:
    """Fold a traced simulation's buckets into the per-layer metrics.

    *wall_s* is the event loop's share of the timed region (trace export,
    where there is one, is no layer's work).
    """
    self_s, calls = recorder.self_s, recorder.calls
    layers = {key: self_s.get(key, 0.0) for key in (
        "sim.glue_s", "sim.trace_record_s", "net.maxmin_s", "net.alloc_s",
        "boinc.client_s", "boinc.rpc_s", "boinc.transfer_s",
        "boinc.daemons_s", "boinc.sched_handle_s", "core.peerdl_s",
        "core.task_s", "obs.metric_s")}
    layers["sim.kernel_s"] = wall_s - recorder.callback_s
    layers["sim.process_resumes"] = recorder.process_resumes
    layers["net.flows_started"] = calls["net.alloc_s"]
    layers["net.maxmin_calls"] = calls["net.maxmin_s"]
    layers["net.maxmin_flows_mean"] = (
        stats["maxmin_flows"] / max(calls["net.maxmin_s"], 1))
    layers["net.share"] = (self_s["net.alloc_s"]
                           + self_s["net.maxmin_s"]) / wall_s
    layers["boinc.rpc_useful_share"] = (
        stats["useful_rpcs"] / max(calls["boinc.sched_handle_s"], 1))
    layers["obs.metric_calls"] = calls["obs.metric_s"]
    layers["trace.other_s"] = self_s.get("other_s", 0.0)
    return layers


# -- campaign plane ----------------------------------------------------------------

def run_campaign_rep(shape: CampaignShape, seed: int, recorder: _t.Any,
                     probe: SpeedProbe) -> dict:
    """One repetition of the Table I campaign (plus, traced, its inline twin)."""
    from repro.campaign import (CampaignCell, CampaignGrid, ResultStore,
                                diff_stores, run_campaign)
    from repro.campaign import runner as runner_module
    from repro.experiments.grids import table1_grid

    grid = table1_grid(seeds=tuple(seed + i for i in range(shape.n_seeds)))
    store_path = OUT / f"campaign-{os.getpid()}.jsonl"
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    with Region(probe) as region:
        report = run_campaign(grid, str(store_path), workers=shape.workers)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = (children.ru_utime + children.ru_stime
                 - children0.ru_utime - children0.ru_stime)
    records = ResultStore(store_path).load()
    errors = [f"cell {rec.key} quarantined" for rec in report.quarantined]
    ok = [rec for rec in records.values() if rec.ok]
    cell_exec_s = sum(rec.meta["wall_s"] for rec in ok)
    payload_sha = hashlib.sha256("".join(
        f"{key}:{sorted(records[key].result.items())!r}"
        for key in sorted(records) if records[key].ok).encode()).hexdigest()
    layers = {"campaign.cells_per_s": len(ok) / region.wall_s,
              "campaign.cell_exec_s": cell_exec_s,
              "campaign.overhead_s":
                  region.wall_s - cell_exec_s / shape.workers}
    failed = len(grid) - len(ok)
    if recorder is not None:
        inline_path = OUT / f"campaign-inline-{os.getpid()}.jsonl"
        recorder.wrap(runner_module, "execute_cell", "campaign.cell_exec_s")
        t0 = _now()
        run_campaign(grid, str(inline_path), workers=0)
        inline_s = _now() - t0
        recorder.unwrap_all()
        mismatches = diff_stores(store_path, inline_path)
        errors += [f"parallel != inline: {line}" for line in mismatches]
        failed += len(mismatches)
        null_grid = CampaignGrid("null", tuple(
            CampaignCell("sleep", seed=i, params={"duration_s": 0.0})
            for i in range(shape.null_cells)))
        null_path = OUT / f"campaign-null-{os.getpid()}.jsonl"
        t0 = _now()
        run_campaign(null_grid, str(null_path), workers=shape.workers)
        layers["campaign.null_cell_ms"] = (
            (_now() - t0) * 1e3 / shape.null_cells)
        layers["campaign.efficiency"] = (
            inline_s / (shape.workers * region.wall_s))
        inline_path.unlink(missing_ok=True)
        null_path.unlink(missing_ok=True)
    store_path.unlink(missing_ok=True)
    return {"region": region, "cpu_s": region.cpu_s + child_cpu,
            "peak_rss_mb": max(self_rss_mb(), children.ru_maxrss / 1024.0),
            "attempted": len(grid), "failed": failed, "errors": errors,
            "exact": {"campaign.payload_sha256": payload_sha},
            "layers": layers}


# -- live gateway -------------------------------------------------------------------

class Gateway:
    """A gateway under test: ``repro serve`` subprocess, or in-thread."""

    def __init__(self, in_thread: bool) -> None:
        """Boot the server and wait for its first ``/healthz`` answer."""
        from repro.gateway import GatewayClient, GatewayServer

        self.process: subprocess.Popen | None = None
        self.handle: _t.Any = None
        self.client: _t.Any = None
        #: Where the subprocess server's own speed probe leaves its samples.
        self.samples_path = OUT / f"serve-probe-{os.getpid()}.json"
        if in_thread:
            self.handle = GatewayServer.in_thread()
            self.address = self.handle.address
        else:
            self.process = subprocess.Popen(
                [sys.executable, str(ROOT / "bench" / "serve.py"),
                 str(self.samples_path), "--port", "0"],
                stdout=subprocess.PIPE, text=True)
            banner = self.process.stdout.readline().split()
            if len(banner) < 4:  # "gateway serving on HOST:PORT (...)"
                self.close()
                raise OSError("repro serve did not start")
            self.address = banner[3]
        self.client = GatewayClient(self.address, retries=2)
        self.client.health()

    def cpu_s(self) -> float:
        """Server CPU seconds so far (0 when in-thread: not separable)."""
        return proc_cpu_s(self.process.pid) if self.process else 0.0

    def rss_mb(self, key: str = "VmRSS") -> float:
        """Server resident set in MiB (this process's when in-thread)."""
        return proc_status_mb(self.process.pid if self.process
                              else os.getpid(), key)

    def close(self) -> None:
        """Stop the server and wait until it has gone."""
        if self.client is not None:
            self.client.close()
        if self.handle is not None:
            self.handle.close()
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()

    def slowdown(self, region: Region) -> tuple[float, float]:
        """``(slowdown, probe cpu seconds)`` of the server's process over
        *region*, once :meth:`close` has made it write its samples; the
        measuring process's own where there are none (in-thread server,
        or a server that was killed)."""
        try:
            with open(self.samples_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return region.slowdown, 0.0
        self.samples_path.unlink()
        return mean_slowdown(doc["times"], doc["samples"],
                             region.start_monotonic, region.end_monotonic)


def _wrap_gateway_layers(recorder: _t.Any,
                         on_rpc: _t.Callable | None = None) -> None:
    """Wrap one request's phases on the in-thread server's own thread."""
    from repro.boinc.server import SchedulerCore
    from repro.gateway import protocol

    for attr, bucket in (("loads", "gateway.parse_us"),
                         ("validate", "gateway.validate_us"),
                         ("dumps", "gateway.serialize_us")):
        recorder.wrap(protocol, attr, bucket, only_thread="gateway")
    recorder.wrap(SchedulerCore, "handle_scheduler_request",
                  "gateway.core_us", only_thread="gateway", observe=on_rpc)
    recorder.wrap(SchedulerCore, "run_daemon_passes",
                  "gateway.daemon_tick_share", only_thread="gateway")


def _gateway_layer_metrics(recorder: _t.Any, region: Region) -> dict:
    """Per-request phase costs of a traced gateway run."""
    self_s, calls = recorder.self_s, recorder.calls
    layers = {bucket: self_s[bucket] / max(calls[bucket], 1) * 1e6
              for bucket in ("gateway.parse_us", "gateway.validate_us",
                             "gateway.core_us", "gateway.serialize_us")}
    layers["gateway.daemon_tick_share"] = (
        self_s["gateway.daemon_tick_share"] / region.wall_s)
    layers["boinc.sched_rpcs"] = calls["gateway.core_us"]
    layers["boinc.sched_handle_s"] = self_s["gateway.core_us"]
    return layers


def _server_lost(attempted: int, exc: BaseException,
                 probe: SpeedProbe) -> dict:
    """A repetition whose server went away: every operation failed."""
    with Region(probe) as region:
        pass
    return {"region": region, "cpu_s": 0.0, "peak_rss_mb": self_rss_mb(),
            "attempted": attempted, "failed": attempted,
            "errors": [f"{type(exc).__name__}: {exc}"], "exact": {},
            "layers": {}}


def _poll_connection(address: str, requests: list[bytes],
                     latencies: list[float], replies: list[bytes]) -> None:
    """Send *requests* back to back on one keep-alive connection.

    Stops at the first transport error: what was not answered stays
    missing from *replies*, and the caller counts it as failed.
    """
    host, _, port = address.partition(":")
    try:
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = sock.makefile("rb")
            for request in requests:
                t0 = _now()
                sock.sendall(request)
                status = stream.readline()
                length = 0
                while True:
                    header = stream.readline()
                    if header in (b"\r\n", b""):
                        break
                    if header[:15].lower() == b"content-length:":
                        length = int(header[15:])
                body = stream.read(length)
                if not status:
                    return
                latencies.append(_now() - t0)
                replies.append(status + body)
    except (OSError, ValueError):
        return


def run_gateway_rpc(shape: RpcShape, seed: int, recorder: _t.Any,
                    probe: SpeedProbe) -> dict:
    """One repetition of the no-work scheduler poll workload."""
    from repro.gateway import GatewayError

    gateway = Gateway(in_thread=recorder is not None)
    try:
        result = _gateway_rpc(gateway, shape, seed, recorder, probe)
    except (GatewayError, OSError) as exc:
        result = _server_lost(shape.polls, exc, probe)
    finally:
        if recorder is not None:
            recorder.unwrap_all()
        gateway.close()
    # The server's CPU is what is charged, and its 85%-busy loop is what
    # the closed loop waits for: its own probe puts both into proportion.
    slowdown, probe_cpu_s = gateway.slowdown(result["region"])
    result.update(slowdown=slowdown,
                  cpu_s=max(result["cpu_s"] - probe_cpu_s, 0.0))
    return result


def _gateway_rpc(gateway: Gateway, shape: RpcShape, seed: int,
                 recorder: _t.Any, probe: SpeedProbe) -> dict:
    from repro.gateway import protocol, run_volunteer

    client = gateway.client
    host_ids = [client.register(f"host{i:04d}") for i in range(shape.hosts)]
    # A drained job: every later poll walks the whole no-work path.
    client.submit_job("warm", "wordcount", 20_000, seed, 4, 2)
    run_volunteer(gateway.address, "warm-volunteer", poll_s=0.002,
                  stop=lambda: client.job_status("warm")["state"] != "running")
    rng = random.Random(seed)
    requests = []
    for _ in range(shape.polls):
        body = protocol.dumps({"host_id": rng.choice(host_ids),
                               "work_req_s": 1.0, "reports": []})
        requests.append(b"POST /rpc/scheduler HTTP/1.1\r\nHost: bench\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
    latencies: list[list[float]] = [[] for _ in range(shape.connections)]
    replies: list[list[bytes]] = [[] for _ in range(shape.connections)]
    threads = [threading.Thread(
        target=_poll_connection,
        args=(gateway.address, requests[k::shape.connections],
              latencies[k], replies[k]))
        for k in range(shape.connections)]
    if recorder is not None:
        _wrap_gateway_layers(recorder)
    rss0 = gateway.rss_mb()
    server_cpu0 = gateway.cpu_s()
    with Region(probe) as region:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    server_cpu = gateway.cpu_s() - server_cpu0
    rss_growth, peak_rss = gateway.rss_mb() - rss0, gateway.rss_mb("VmHWM")

    # Replies are checked after the clock stops: a wrong one is a failed op
    # (no-work replies are byte-identical, so each distinct one is checked
    # once and counted as often as it came).
    answered = collections.Counter(r for per_conn in replies for r in per_conn)
    errors, wrong = [], 0
    for reply, count in answered.items():
        status, _, body = reply.partition(b"\r\n")
        if not status.startswith(b"HTTP/1.1 200"):
            problems = [f"status {status!r}"]
        else:
            problems = protocol.validate("WorkReply", protocol.loads(body))
            if not problems and not protocol.loads(body)["no_work"]:
                problems = ["poll was given work"]
        if problems:
            wrong += count
            errors.append("; ".join(problems))
    samples = sorted(x for per_conn in latencies for x in per_conn) or [0.0]
    layers = {"gateway.rpc_per_s": len(samples) / region.wall_s,
              "gateway.rpc_p50_ms": percentile(samples, 0.50) * 1e3,
              "gateway.rpc_p90_ms": percentile(samples, 0.90) * 1e3,
              "gateway.rpc_p99_ms": percentile(samples, 0.99) * 1e3,
              "gateway.server_cpu_us_per_rpc": server_cpu / shape.polls * 1e6,
              "gateway.client_cpu_share": region.cpu_s / region.wall_s,
              "gateway.server_rss_growth_mb": rss_growth}
    if recorder is not None:
        layers.update(_gateway_layer_metrics(recorder, region))
    # The load generator is the benchmark's own code: only the server
    # executes the program, so only its CPU and memory are charged
    # (traced, the server shares this process and cannot be told apart).
    return {"region": region,
            "cpu_s": server_cpu if recorder is None else region.cpu_s,
            "peak_rss_mb": peak_rss, "attempted": shape.polls,
            "failed": shape.polls - sum(answered.values()) + wrong,
            "errors": errors[:5], "exact": {}, "layers": layers}


def run_gateway_job(shape: JobShape, seed: int, recorder: _t.Any,
                    probe: SpeedProbe) -> dict:
    """One repetition of the live word-count job."""
    from repro import workloads as corpus_module
    from repro.gateway import GatewayError
    from repro.gateway import jobs as jobs_module

    if recorder is not None:
        # Before the server exists, so its corpus generation is seen too.
        recorder.wrap(jobs_module, "generate_corpus", "workloads.corpus_s")
        recorder.wrap(corpus_module, "generate_corpus", "workloads.corpus_s")
    gateway = Gateway(in_thread=recorder is not None)
    stop = threading.Event()
    threads: list[threading.Thread] = []
    try:
        result = _gateway_job(gateway, shape, seed, recorder, probe, stop,
                              threads)
    except (GatewayError, OSError) as exc:
        result = _server_lost((shape.n_maps + shape.n_reducers)
                              * shape.replication, exc, probe)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        if recorder is not None:
            recorder.unwrap_all()
        gateway.close()
    # Two measured processes, two probes: the slowdown of the whole is
    # the mean of theirs, weighted by the CPU seconds each process used.
    region = result["region"]
    server_slowdown, probe_cpu_s = gateway.slowdown(region)
    server_cpu_s = max(result.pop("server_cpu_s", 0.0) - probe_cpu_s, 0.0)
    total_cpu_s = max(region.cpu_s + server_cpu_s, 1e-9)
    result.update(
        cpu_s=total_cpu_s,
        slowdown=(region.cpu_s * region.slowdown
                  + server_cpu_s * server_slowdown) / total_cpu_s)
    return result


def _gateway_job(gateway: Gateway, shape: JobShape, seed: int,
                 recorder: _t.Any, probe: SpeedProbe, stop: threading.Event,
                 threads: list[threading.Thread]) -> dict:
    from repro.gateway import GatewayError, client as client_module
    from repro.gateway import run_volunteer
    from repro.gateway.jobs import decode_payload
    from repro.runtime.engine import LocalRunner
    from repro.workloads import generate_corpus

    client = gateway.client
    oracle = dict(collections.Counter(
        generate_corpus(shape.corpus_bytes, seed=seed).split()))
    stats: list = [None] * shape.volunteers

    def volunteer(k: int) -> None:
        try:
            stats[k] = run_volunteer(gateway.address, f"volunteer{k}",
                                     poll_s=0.01, idle_limit=10 ** 9,
                                     stop=stop.is_set)
        except (GatewayError, OSError):
            pass  # the server went away; the missing results count as lost

    transfers: dict[str, list[float]] = {"download": [], "upload": []}
    moved_bytes = [0]
    busy: dict[int, float] = collections.defaultdict(float)
    barrier: dict[str, float] = {}

    def seen_download(_args: tuple, data: bytes, dur: float) -> None:
        transfers["download"].append(dur)
        moved_bytes[0] += len(data)

    def seen_upload(args: tuple, _reply: _t.Any, dur: float) -> None:
        transfers["upload"].append(dur)
        moved_bytes[0] += len(args[3])

    def seen_task(_args: tuple, _report: _t.Any, dur: float) -> None:
        busy[threading.get_ident()] += dur

    def seen_rpc(args: tuple, reply: _t.Any, _dur: float) -> None:
        core, request = args
        if "first_reduce" in barrier:
            return
        for rep in request.reports:
            wu = core.db.workunits[core.db.results[rep.result_id].wu_id]
            if wu.mr_kind == "map":
                barrier["last_map_report"] = _now()
        if any(a.wu.mr_kind == "reduce" for a in reply.assignments):
            barrier["first_reduce"] = _now()

    if recorder is not None:
        _wrap_gateway_layers(recorder, on_rpc=seen_rpc)
        recorder.wrap(client_module.GatewayClient, "download",
                      "gateway.data_get", observe=seen_download)
        recorder.wrap(client_module.GatewayClient, "upload",
                      "gateway.upload", observe=seen_upload)
        recorder.wrap(client_module, "execute_task", "gateway.task",
                      observe=seen_task)
        recorder.wrap(LocalRunner, "run_map_task", "runtime.map_s")
        recorder.wrap(LocalRunner, "run_reduce_task", "runtime.reduce_s")
    threads += [threading.Thread(target=volunteer, args=(k,))
                for k in range(shape.volunteers)]
    for thread in threads:
        thread.start()
    while client.status()["counts"]["hosts"] < shape.volunteers:
        time.sleep(0.002)
    server_cpu0 = gateway.cpu_s()
    with Region(probe) as region:
        client.submit_job("job", "wordcount", shape.corpus_bytes, seed,
                          shape.n_maps, shape.n_reducers,
                          replication=shape.replication, quorum=shape.quorum)
        while client.job_status("job")["state"] == "running":
            time.sleep(0.002)
        payload = client.job_output("job")
    stop.set()
    for thread in threads:
        thread.join()
    server_cpu = gateway.cpu_s() - server_cpu0
    status = client.job_status("job")
    results = client.status()["counts"]["results"]

    workunits = shape.n_maps + shape.n_reducers
    attempted = workunits * shape.replication
    done = sum(s.tasks_done for s in stats if s is not None)
    errors = []
    if done != attempted or results != attempted:
        errors.append(f"{done} results computed, {results} issued, "
                      f"{attempted} expected (lost or duplicated)")
    if status["assimilated"] != workunits:
        errors.append(f"assimilated {status['assimilated']} of {workunits}")
    if decode_payload(payload) != oracle:
        errors.append("output differs from the word-count oracle")
    layers = {"gateway.idle_polls":
              sum(s.idle_polls for s in stats if s is not None)}
    if recorder is not None:
        layers.update(_gateway_layer_metrics(recorder, region))
        busy_s = sorted(busy.values()) or [0.0]
        layers.update({
            "gateway.data_get_p50_ms":
                percentile(sorted(transfers["download"]) or [0.0], 0.5) * 1e3,
            "gateway.upload_p50_ms":
                percentile(sorted(transfers["upload"]) or [0.0], 0.5) * 1e3,
            "gateway.blob_mb": moved_bytes[0] / MIB,
            "gateway.barrier_wait_s": max(
                barrier.get("first_reduce", 0.0)
                - barrier.get("last_map_report", 0.0), 0.0),
            "gateway.volunteer_busy_min_s": busy_s[0],
            "gateway.volunteer_busy_max_s": busy_s[-1],
            "runtime.map_s": recorder.self_s["runtime.map_s"],
            "runtime.reduce_s": recorder.self_s["runtime.reduce_s"],
            "workloads.corpus_s": recorder.self_s["workloads.corpus_s"],
        })
    return {"region": region, "cpu_s": region.cpu_s,
            "server_cpu_s": server_cpu,
            "peak_rss_mb": max(gateway.rss_mb("VmHWM"), self_rss_mb()),
            "attempted": attempted,
            "failed": max(abs(attempted - done), len(errors)),
            "errors": errors, "exact": {"gateway.results": results},
            "layers": layers}


RUNNERS: dict[type, _t.Callable[..., dict]] = {
    SimShape: run_sim,
    CampaignShape: run_campaign_rep,
    RpcShape: run_gateway_rpc,
    JobShape: run_gateway_job,
}
