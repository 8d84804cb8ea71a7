"""The top-level BOINC-MR system facade.

:class:`VolunteerCloud` wires a complete deployment together — simulator,
network, project server (with daemons), JobTracker, and volunteer clients
(original BOINC or BOINC-MR) — behind a small API:

    spec = CloudSpec(seed=1)
    cloud = VolunteerCloud.from_spec(spec)
    cloud.add_volunteers(20, mr=True)
    job = cloud.submit(MapReduceJobSpec("wc", n_maps=20, n_reducers=5))
    cloud.run_until(job.done)
    print(job.makespan())

Everything is deterministic under the seed.  :class:`CloudSpec` is the
single construction surface — a frozen dataclass, so a spec can be shared,
hashed, and ``replace()``-ed between experiment variants without any risk
of one run mutating another's configuration.  It can also carry the
paper's homogeneous volunteer population (Section IV.A), in which case
``from_spec`` adds the volunteers itself::

    cloud = VolunteerCloud.from_spec(
        CloudSpec(seed=1, n_nodes=20, mr_clients=True))
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..boinc.client import Client, ClientConfig
from ..boinc.server import ProjectServer, ServerConfig
from ..net import (
    EMULAB_LINK,
    ConnectivityPolicy,
    LinkSpec,
    NatBox,
    Network,
)
from ..obs import MetricsRegistry, Sampler, SelfProfiler, SpanBuilder
from ..obs import attach_standard_probes
from ..sim import (
    Event,
    RngRegistry,
    SimulationError,
    Simulator,
    Tracer,
)
from .config import BoincMRConfig
from .executor import MapReduceExecutor
from .interclient import PeerStore
from .job import MapReduceJob, MapReduceJobSpec
from .jobtracker import JobTracker
from .policies import ClientDirectory, MapReduceInputFetcher, MapReduceOutputPolicy

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..faults import AuditReport, FaultInjector
    from ..net.supernode import SupernodeOverlay

#: Node classes from the paper's testbed.  pc3001 (3 GHz P4 Xeon) is the
#: reference; pcr200 (quad-core X3220) is ~1.6x faster per core for this
#: workload class.
PC3001_FLOPS = 1.0
PCR200_FLOPS = 1.6


@dataclasses.dataclass(frozen=True, slots=True)
class CloudSpec:
    """Everything needed to construct a :class:`VolunteerCloud`.

    Build a spec, then ``VolunteerCloud.from_spec(spec)``.  Being frozen,
    specs are safely shareable between runs; derive variants with
    :meth:`replace`::

        base = CloudSpec(seed=1, server_link=SERVER_LINK)
        reseeded = base.replace(seed=2)
    """

    seed: int = 0
    server_config: ServerConfig | None = None
    #: None = the default for the declared population: original BOINC
    #: (:meth:`BoincMRConfig.vanilla_boinc`) when :attr:`n_nodes` non-MR
    #: clients are declared, ``BoincMRConfig()`` otherwise.
    mr_config: BoincMRConfig | None = None
    client_config: ClientConfig | None = None
    server_link: LinkSpec = EMULAB_LINK
    #: Homogeneous volunteers ``node000``.. that ``from_spec`` adds itself
    #: (0 = none; populate with :meth:`VolunteerCloud.add_volunteers`).
    n_nodes: int = 0
    #: BOINC-MR clients (inter-client transfers) or original BOINC ones.
    mr_clients: bool = False
    #: Access link of every declared volunteer.
    link: LinkSpec = EMULAB_LINK
    #: Fraction of the declared nodes, lowest indices first, that are the
    #: faster pcr200 class.
    fast_node_fraction: float = 0.0
    byzantine_rate: float = 0.0
    #: One NAT box (or None = publicly reachable) per declared node.
    nats: _t.Sequence[NatBox | None] | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_nodes < 0:
            raise ValueError(f"n_nodes must be >= 0, got {self.n_nodes}")
        if self.nats is not None:
            if len(self.nats) != self.n_nodes:
                raise ValueError("nats must have one entry per node")
            object.__setattr__(self, "nats", tuple(self.nats))

    def replace(self, **changes: _t.Any) -> "CloudSpec":
        """A copy of this spec with *changes* applied."""
        return dataclasses.replace(self, **changes)


class VolunteerCloud:
    """A complete simulated BOINC-MR deployment."""

    def __init__(self, spec: CloudSpec | None = None, *,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        """Build a cloud from a :class:`CloudSpec` (default spec if None)."""
        if spec is None:
            spec = CloudSpec()
        elif not isinstance(spec, CloudSpec):
            raise TypeError(
                f"spec must be a CloudSpec, got {type(spec).__name__}")
        #: The frozen construction spec this deployment was built from.
        self.spec = spec
        self.sim = Simulator()
        self.rngs = RngRegistry(spec.seed)
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.net = Network(self.sim, tracer=None,  # flow traces are noisy
                           metrics=self.metrics)
        self.server_host = self.net.add_host("server", spec.server_link)
        self.server = ProjectServer(self.sim, self.net, self.server_host,
                                    config=spec.server_config,
                                    tracer=self.tracer,
                                    rng=self.rngs.stream("server"),
                                    metrics=self.metrics)
        vanilla = spec.n_nodes > 0 and not spec.mr_clients
        self.mr_config = spec.mr_config or (
            BoincMRConfig.vanilla_boinc() if vanilla else BoincMRConfig())
        self.client_config = spec.client_config or ClientConfig()
        self.jobtracker = JobTracker(self.server, self.sim.event,
                                     config=self.mr_config)
        self.jobtracker.on_job_done = self._cleanup_job
        self.directory = ClientDirectory()
        self.connectivity = ConnectivityPolicy(rng=self.rngs.stream("nat"))
        self.clients: list[Client] = []
        self._started = False
        #: Observability attachments (populated by attach_observability).
        self.span_builder: SpanBuilder | None = None
        self.sampler: Sampler | None = None
        self.profiler: SelfProfiler | None = None
        n_fast = int(round(spec.n_nodes * spec.fast_node_fraction))
        for i in range(spec.n_nodes):
            self.add_volunteer(
                f"node{i:03d}",
                flops=PCR200_FLOPS if i < n_fast else PC3001_FLOPS,
                mr=spec.mr_clients, link_spec=spec.link,
                nat=spec.nats[i] if spec.nats is not None else None,
                byzantine_rate=spec.byzantine_rate)

    @classmethod
    def from_spec(cls, spec: CloudSpec, *, tracer: Tracer | None = None,
                  metrics: MetricsRegistry | None = None) -> "VolunteerCloud":
        """Build a deployment from a frozen :class:`CloudSpec`.

        The preferred constructor; *tracer* and *metrics* stay out of the
        spec because they are stateful observers, not configuration.  The
        spec's ``n_nodes`` volunteers are added (not started) in index
        order, so their rng streams depend only on the seed and the name.
        """
        return cls(spec, tracer=tracer, metrics=metrics)

    # -- population ------------------------------------------------------------
    def add_volunteer(self, name: str | None = None, *, flops: float = 1.0,
                      mr: bool = False, link_spec: LinkSpec = EMULAB_LINK,
                      nat: NatBox | None = None,
                      config: ClientConfig | None = None,
                      byzantine_rate: float = 0.0,
                      hr_class: str = "",
                      platform_variance: bool = False) -> Client:
        """Create one volunteer host and its client (not yet started)."""
        if name is None:
            # First free hostNNN at or after the population size, so an
            # explicitly named "host001" cannot collide with a later auto-name.
            n = len(self.clients)
            while (name := f"host{n:03d}") in self.net.hosts:
                n += 1
        host = self.net.add_host(name, link_spec, nat=nat)
        record = self.server.register_host(name, flops, supports_mr=mr,
                                           hr_class=hr_class)
        cfg = config or self.client_config
        executor = MapReduceExecutor(
            self.jobtracker, byzantine_rate=byzantine_rate,
            platform_variance=platform_variance,
            rng=self.rngs.stream(f"exec.{name}"))
        fetcher = MapReduceInputFetcher(
            self.jobtracker, self.directory, self.mr_config,
            connectivity=self.connectivity, relay=self.server_host,
            rng=self.rngs.stream(f"fetch.{name}"))
        output_policy = MapReduceOutputPolicy(self.jobtracker, self.mr_config)
        client = Client(self.sim, self.net, self.server, host, record,
                        config=cfg, rng=self.rngs.stream(f"client.{name}"),
                        tracer=self.tracer, input_fetcher=fetcher,
                        output_policy=output_policy, executor=executor)
        if mr:
            client.peer_store = PeerStore(self.sim,
                                          self.mr_config.serve_timeout_s)
        self.directory.register(client)
        self.clients.append(client)
        if self._started:
            client.start()
        return client

    def add_volunteers(self, n: int, **kwargs: _t.Any) -> list[Client]:
        """Add *n* identical volunteers (names auto-generated)."""
        return [self.add_volunteer(**kwargs) for _ in range(n)]

    def enable_supernode_overlay(self, n_supernodes: int = 3,
                                 fanout: int = 2) -> "SupernodeOverlay":
        """Relay NAT-blocked transfers through a supernode overlay.

        Section III.D's alternative to relaying through the project
        server: publicly reachable, well-provisioned volunteers are
        elected supernodes and carry relayed inter-client traffic,
        keeping the server's access link out of the data path.  Call
        after the volunteer population is built.
        """
        from ..net.supernode import SupernodeOverlay

        overlay = SupernodeOverlay([c.host for c in self.clients],
                                   n_supernodes=n_supernodes, fanout=fanout)
        for client in self.clients:
            client.input_fetcher.relay_selector = overlay.pick_relay
        self.overlay = overlay
        return overlay

    # -- observability -----------------------------------------------------------
    def attach_observability(self, spans: bool = True, probes: bool = True,
                             sample_period_s: float = 30.0,
                             profile: bool = False) -> None:
        """Wire the full observability stack onto this deployment.

        Call before the first job: *spans* folds the trace into per-result
        timelines (export with :func:`repro.obs.chrome_trace_json`),
        *probes* registers the standard queue-depth gauges and starts a
        :class:`Sampler` over them, and *profile* hooks the wall-clock
        :class:`SelfProfiler` onto the event loop.  Idempotent.
        """
        if spans and self.span_builder is None:
            self.span_builder = SpanBuilder(self.tracer)
        if probes:
            attach_standard_probes(self)
            if self.sampler is None:
                self.sampler = Sampler(self.sim, self.metrics,
                                       period_s=sample_period_s)
        if profile and self.profiler is None:
            self.profiler = SelfProfiler(self.sim)

    def finish_observability(self) -> SpanBuilder | None:
        """Close leaked spans at the current sim time; returns the builder."""
        if self.span_builder is not None:
            self.span_builder.finish(self.sim.now)
        return self.span_builder

    # -- fault injection ---------------------------------------------------------
    def apply_faults(self, plan: _t.Any) -> "FaultInjector":
        """Arm a chaos plan (name, TOML path, ChaosPlan, or FaultSpec list).

        Faults draw from the dedicated ``"faults"`` rng stream, so armed
        plans never perturb the draw sequences of the model itself: the
        same seed + the same plan reproduces the same run byte for byte.
        """
        from ..faults import FaultInjector, resolve_plan

        if isinstance(plan, str):
            plan = resolve_plan(plan)
        injector = FaultInjector(self, plan)
        return injector.arm()

    def audit(self, job: "MapReduceJob | None" = None,
              settle: bool = True) -> "AuditReport":
        """Post-run invariant sweep; see :class:`repro.faults.RunAuditor`."""
        from ..faults import RunAuditor

        auditor = RunAuditor(self)
        if settle:
            auditor.settle()
            auditor.drain()
        return auditor.audit(job)

    # -- jobs --------------------------------------------------------------------
    def submit(self, spec: MapReduceJobSpec) -> MapReduceJob:
        """Submit a MapReduce job; starts the system on first use."""
        self.start()
        return self.jobtracker.submit(spec)

    def start(self) -> None:
        """Start server daemons and all clients (idempotent)."""
        if self._started:
            return
        self._started = True
        self.server.start_daemons()
        for client in self.clients:
            client.start()

    def _cleanup_job(self, job: MapReduceJob) -> None:
        """Withdraw served map outputs once the job completes."""
        for client in self.clients:
            if client.peer_store is not None:
                client.peer_store.stop_job(job.spec.name)

    # -- execution ---------------------------------------------------------------
    def run_until(self, event: Event, timeout: float = 7 * 24 * 3600.0) -> None:
        """Advance the simulation until *event* fires.

        Raises :class:`SimulationError` if the deadline passes first — a
        stuck job should fail loudly, not spin.
        """
        self.start()
        deadline = self.sim.now + timeout
        self.sim.run(until_event=event, until=deadline)
        if not event.triggered:
            raise SimulationError(
                f"event {event.name!r} did not fire within {timeout:g}s "
                f"(t={self.sim.now:g})")
        if event.exception is not None:
            raise event.exception  # e.g. the job failed — be loud

    def run_job(self, spec: MapReduceJobSpec,
                timeout: float = 7 * 24 * 3600.0) -> MapReduceJob:
        """Submit *spec*, run to completion, and return the finished job."""
        job = self.submit(spec)
        self.run_until(job.done, timeout=timeout)
        return job
