"""Internet-scale deployment study (the paper's PlanetLab future work).

"We expect to run experiments on a more realistic setting such as
Planetlab in the near future to more accurately assess the performance of
our prototype."  This experiment is that setting, synthesised: volunteers
on asymmetric consumer links (ADSL/cable, tens of ms latency) with a NAT
population, heterogeneous CPU speeds drawn log-normally, and a
well-provisioned university server — versus the paper's idealised Emulab
LAN.  It quantifies how much of BOINC-MR's inter-client advantage
survives the real Internet's thin uplinks.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import JobMetrics, job_metrics
from ..core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from ..net import (
    ADSL_LINK,
    CABLE_LINK,
    SERVER_LINK,
    LinkSpec,
    sample_nat_population,
)
from ..sim import RngRegistry

#: 2011-ish home connectivity mix: mostly ADSL, some cable, a few
#: university/fiber volunteers.
UNIVERSITY_LINK = LinkSpec(down_bps=100e6, up_bps=100e6, latency_s=0.005)
LINK_MIX: tuple[tuple[LinkSpec, float], ...] = (
    (ADSL_LINK, 0.55),
    (CABLE_LINK, 0.35),
    (UNIVERSITY_LINK, 0.10),
)


@dataclasses.dataclass(slots=True)
class InternetDeployment:
    """One synthesized Internet deployment's results."""

    label: str
    metrics: JobMetrics
    server_gb_served: float
    peer_gb: float
    cloud: VolunteerCloud

    @property
    def total(self) -> float:
        """Total job makespan in seconds."""
        return self.metrics.total


def build_internet_cloud(seed: int, n_nodes: int, mr: bool,
                         with_nats: bool = True) -> VolunteerCloud:
    """A volunteer cloud on consumer links with NATs and speed spread."""
    rngs = RngRegistry(seed)
    rng = rngs.stream("planetlab")
    mr_config = (BoincMRConfig(upload_map_outputs=True) if mr
                 else BoincMRConfig.vanilla_boinc())
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed, mr_config=mr_config, server_link=SERVER_LINK))
    nats = (sample_nat_population(rngs.stream("nats"), n_nodes)
            if with_nats else [None] * n_nodes)
    links, weights = zip(*LINK_MIX)
    for i in range(n_nodes):
        link = links[int(rng.choice(len(links), p=weights))]
        # Log-normal CPU speed spread around the pc3001 reference.
        flops = float(rng.lognormal(mean=0.0, sigma=0.35))
        cloud.add_volunteer(f"vol{i:03d}", flops=max(0.3, flops), mr=mr,
                            link_spec=link, nat=nats[i])
    return cloud


def run_internet_deployment(seed: int = 1, n_nodes: int = 20, mr: bool = True,
                            n_maps: int = 20, n_reducers: int = 5,
                            input_size: float = 1e9) -> InternetDeployment:
    """Run one word-count job on the PlanetLab-like internet topology."""
    cloud = build_internet_cloud(seed, n_nodes, mr)
    name = f"planetlab_{'mr' if mr else 'vanilla'}"
    job = cloud.run_job(MapReduceJobSpec(
        name, n_maps=n_maps, n_reducers=n_reducers, input_size=input_size),
        timeout=14 * 24 * 3600.0)
    assert job.finished
    peer_bytes = sum(
        c.peer_store.bytes_served for c in cloud.clients
        if c.peer_store is not None)
    return InternetDeployment(
        label=name,
        metrics=job_metrics(cloud.tracer, name),
        server_gb_served=cloud.server.dataserver.bytes_served / 1e9,
        peer_gb=peer_bytes / 1e9,
        cloud=cloud,
    )


def run_lan_vs_internet(seed: int = 1) -> dict[str, InternetDeployment]:
    """The four-way comparison: {LAN, Internet} x {vanilla, BOINC-MR}."""
    from .scenario import run_scenario

    out: dict[str, InternetDeployment] = {}
    for mr in (False, True):
        label = f"lan_{'mr' if mr else 'vanilla'}"
        result = run_scenario(
            CloudSpec(seed=seed, n_nodes=20, mr_clients=mr),
            MapReduceJobSpec(label, n_maps=20, n_reducers=5))
        peer_bytes = sum(
            c.peer_store.bytes_served for c in result.cloud.clients
            if c.peer_store is not None)
        out[label] = InternetDeployment(
            label=label, metrics=result.metrics,
            server_gb_served=result.cloud.server.dataserver.bytes_served / 1e9,
            peer_gb=peer_bytes / 1e9, cloud=result.cloud)
    for mr in (False, True):
        dep = run_internet_deployment(seed=seed, mr=mr)
        out[dep.label] = dep
    return out
