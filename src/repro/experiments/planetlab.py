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

import functools
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
from .scenario import metrics_payload, run_scenario
from .study import VARIANT, Claim, Study, col

#: 2011-ish home connectivity mix: mostly ADSL, some cable, a few
#: university/fiber volunteers.
UNIVERSITY_LINK = LinkSpec(down_bps=100e6, up_bps=100e6, latency_s=0.005)
LINK_MIX: tuple[tuple[LinkSpec, float], ...] = (
    (ADSL_LINK, 0.55),
    (CABLE_LINK, 0.35),
    (UNIVERSITY_LINK, 0.10),
)


def build_internet_cloud(seed: int, n_nodes: int, mr: bool) -> VolunteerCloud:
    """A volunteer cloud on consumer links with NATs and speed spread."""
    rngs = RngRegistry(seed)
    rng = rngs.stream("planetlab")
    mr_config = (BoincMRConfig(upload_map_outputs=True) if mr
                 else BoincMRConfig.vanilla_boinc())
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed, mr_config=mr_config, server_link=SERVER_LINK))
    nats = sample_nat_population(rngs.stream("nats"), n_nodes)
    links, weights = zip(*LINK_MIX)
    for i in range(n_nodes):
        link = links[rng.choice(len(links), p=weights)]
        # Log-normal CPU speed spread around the pc3001 reference.
        flops = rng.lognormal(sigma=0.35)
        cloud.add_volunteer(f"vol{i:03d}", flops=max(0.3, flops), mr=mr,
                            link_spec=link, nat=nats[i])
    return cloud


def _payload(cloud: VolunteerCloud, metrics: JobMetrics) -> dict[str, _t.Any]:
    return {
        **metrics_payload(metrics),
        "server_gb_served": cloud.server.dataserver.bytes_served / 1e9,
        "peer_gb": sum(c.peer_store.bytes_served for c in cloud.clients
                       if c.peer_store is not None) / 1e9,
    }


def lan_payload(mr: bool, seed: int) -> dict[str, _t.Any]:
    """The 1 GB word count on the paper's Emulab-like LAN (20/20/5)."""
    result = run_scenario(
        CloudSpec(seed=seed, n_nodes=20, mr_clients=mr),
        MapReduceJobSpec("lan", n_maps=20, n_reducers=5))
    return _payload(result.cloud, result.metrics)


def internet_payload(mr: bool, seed: int) -> dict[str, _t.Any]:
    """The same job on the PlanetLab-like internet topology."""
    cloud = build_internet_cloud(seed, 20, mr)
    cloud.run_job(MapReduceJobSpec("planetlab", n_maps=20, n_reducers=5),
                  timeout=14 * 24 * 3600.0)
    return _payload(cloud, job_metrics(cloud.tracer, "planetlab"))


def _halves_server_traffic(p: _t.Mapping[str, _t.Any]) -> bool:
    return all(
        p[f"{env}_mr"]["server_gb_served"]
        < 0.6 * p[f"{env}_vanilla"]["server_gb_served"]
        and p[f"{env}_mr"]["peer_gb"] > 0
        for env in ("lan", "planetlab"))


STUDY = Study(
    name="planetlab", seed=1,
    variants={
        "lan_vanilla": functools.partial(lan_payload, False),
        "lan_mr": functools.partial(lan_payload, True),
        "planetlab_vanilla": functools.partial(internet_payload, False),
        "planetlab_mr": functools.partial(internet_payload, True),
    },
    columns=(
        VARIANT,
        col("total", "{total:.0f} s"),
        col("map", "{map_mean:.0f} s"),
        col("reduce", "{reduce_mean:.0f} s"),
        col("server GB", "{server_gb_served:.2f}"),
        col("peer GB", "{peer_gb:.2f}"),
    ),
    claims=(
        Claim("On the paper's LAN, BOINC-MR's reduce phase is faster, as "
              "in Table I.",
              lambda p: p["lan_mr"]["reduce_mean"]
              < p["lan_vanilla"]["reduce_mean"]),
        Claim("On thin consumer uplinks the advantage inverts: pulling "
              "intermediate data from peers is slower than the fat server "
              "path.",
              lambda p: p["planetlab_mr"]["reduce_mean"]
              > p["planetlab_vanilla"]["reduce_mean"]),
        Claim("Whatever the makespan, BOINC-MR's stated goal stands: the "
              "server moves under 60 % of the bytes because map outputs "
              "travel peer-to-peer.", _halves_server_traffic),
        Claim("The Internet deployment is slower than the LAN.",
              lambda p: p["planetlab_vanilla"]["total"]
              > p["lan_vanilla"]["total"]),
    ),
)
