"""Scenario builder: assemble a full deployment for one experiment run.

A :class:`Scenario` mirrors the paper's experiment setup (Section IV.A):
an Emulab-like cluster of ``n_nodes`` volunteer machines on 100 Mbit
links around one project server, a single word-count job with a fixed
1 GB input split into ``n_maps`` chunks, replication 2 / quorum 2, and
either original BOINC clients (data via the server) or BOINC-MR clients
(inter-client transfers).

``run()`` executes the scenario to completion and returns the paper's
metrics plus handles for deeper inspection.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import JobMetrics, job_metrics
from ..boinc.client import ClientConfig
from ..boinc.server import ServerConfig
from ..core import (
    BoincMRConfig,
    CloudSpec,
    MapReduceJob,
    MapReduceJobSpec,
    VolunteerCloud,
)
from ..core.costmodel import WORD_COUNT, MapReduceCostModel
from ..net import EMULAB_LINK, LinkSpec, NatBox
from ..sim import Tracer

#: Node classes from the paper's testbed.  pc3001 (3 GHz P4 Xeon) is the
#: reference; pcr200 (quad-core X3220) is ~1.6x faster per core for this
#: workload class.
PC3001_FLOPS = 1.0
PCR200_FLOPS = 1.6


@dataclasses.dataclass(slots=True)
class Scenario:
    """One experiment configuration (a Table I row, by default)."""

    name: str
    n_nodes: int
    n_maps: int
    n_reducers: int
    mr_clients: bool = False
    input_size: float = 1e9
    replication: int = 2
    quorum: int = 2
    seed: int = 1
    cost: MapReduceCostModel = WORD_COUNT
    app_name: str = "wordcount"
    #: Fraction of nodes that are the faster pcr200 class.
    fast_node_fraction: float = 0.0
    #: Access-link profile shared by the server and every volunteer.
    link: LinkSpec = EMULAB_LINK
    #: Server access link override (None = same as :attr:`link`).  Internet
    #: deployments pair a well-provisioned project server (SERVER_LINK) with
    #: consumer volunteer links.
    server_link: LinkSpec | None = None
    #: Optional per-node NAT boxes (None = publicly reachable LAN).
    nats: _t.Sequence[NatBox | None] | None = None
    byzantine_rate: float = 0.0
    server_config: ServerConfig | None = None
    client_config: ClientConfig | None = None
    mr_config: BoincMRConfig | None = None
    timeout_s: float = 48 * 3600.0

    def __post_init__(self) -> None:
        if self.n_nodes < self.replication:
            raise ValueError(
                "need at least `replication` nodes or no workunit can ever "
                "reach quorum (one replica per host)")
        if self.nats is not None and len(self.nats) != self.n_nodes:
            raise ValueError("nats must have one entry per node")

    def default_mr_config(self) -> BoincMRConfig:
        """The effective BOINC-MR config (explicit, or derived)."""
        if self.mr_config is not None:
            return self.mr_config
        if self.mr_clients:
            return BoincMRConfig()
        # Original BOINC: everything via the server.
        return BoincMRConfig(upload_map_outputs=True, reduce_from_peers=False)

    def cloud_spec(self) -> CloudSpec:
        """The :class:`CloudSpec` this scenario's deployment is built from."""
        return CloudSpec(
            seed=self.seed,
            server_config=self.server_config,
            mr_config=self.default_mr_config(),
            client_config=self.client_config,
            server_link=self.server_link or self.link,
        )


@dataclasses.dataclass(slots=True)
class ScenarioResult:
    """Everything a benchmark needs from one run."""

    scenario: Scenario
    job: MapReduceJob
    metrics: JobMetrics
    tracer: Tracer
    cloud: VolunteerCloud

    @property
    def total(self) -> float:
        """Total job makespan in seconds."""
        return self.metrics.total


def build_cloud(scenario: Scenario) -> VolunteerCloud:
    """Construct (but do not run) the deployment for *scenario*."""
    cloud = VolunteerCloud.from_spec(scenario.cloud_spec())
    n_fast = int(round(scenario.n_nodes * scenario.fast_node_fraction))
    for i in range(scenario.n_nodes):
        flops = PCR200_FLOPS if i < n_fast else PC3001_FLOPS
        nat = scenario.nats[i] if scenario.nats is not None else None
        cloud.add_volunteer(
            f"node{i:03d}", flops=flops, mr=scenario.mr_clients,
            link_spec=scenario.link, nat=nat,
            byzantine_rate=scenario.byzantine_rate)
    return cloud


def job_spec(scenario: Scenario) -> MapReduceJobSpec:
    """The MapReduceJobSpec a scenario's deployment will run."""
    return MapReduceJobSpec(
        name=scenario.name,
        n_maps=scenario.n_maps,
        n_reducers=scenario.n_reducers,
        input_size=scenario.input_size,
        replication=scenario.replication,
        quorum=scenario.quorum,
        cost=scenario.cost,
        app_name=scenario.app_name,
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run *scenario* to job completion and extract the paper's metrics."""
    cloud = build_cloud(scenario)
    job = cloud.run_job(job_spec(scenario), timeout=scenario.timeout_s)
    metrics = job_metrics(cloud.tracer, scenario.name)
    return ScenarioResult(scenario=scenario, job=job, metrics=metrics,
                          tracer=cloud.tracer, cloud=cloud)
