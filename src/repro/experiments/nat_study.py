"""Section III.D study: NAT traversal strategies for inter-client transfers.

The paper did not deploy NAT traversal ("we did not address NAT and
firewall traversal but ... describes some of the alternative solutions");
this study quantifies the design space it sketches: for an Internet-like
NAT population, how does each rung of the traversal ladder (direct /
connection reversal / hole punching / TURN-style relay through the project
server) affect inter-client MapReduce — how many transfers succeed per
method, how many fall back to the server, and what it does to makespan.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from ..net import NatType, TraversalConfig, sample_nat_population
from ..sim import RngRegistry
from .scenario import ScenarioResult, run_scenario

#: An Internet-like volunteer NAT population (see ``sample_nat_population``).
INTERNET_MIX: dict[NatType, float] = {
    NatType.NONE: 0.20,
    NatType.FULL_CONE: 0.15,
    NatType.RESTRICTED: 0.20,
    NatType.PORT_RESTRICTED: 0.30,
    NatType.SYMMETRIC: 0.10,
    NatType.FIREWALL: 0.05,
}


@dataclasses.dataclass(slots=True)
class NatStudyOutcome:
    """One traversal configuration's results."""

    label: str
    total: float
    method_counts: dict[str, int]
    peer_fetches: int
    server_fallbacks: int
    result: ScenarioResult


#: The ladder configurations compared, cheapest-capability first.
LADDERS: dict[str, TraversalConfig] = {
    "direct_only": TraversalConfig(enable_reversal=False,
                                   enable_hole_punch=False,
                                   enable_relay=False),
    "plus_reversal": TraversalConfig(enable_hole_punch=False,
                                     enable_relay=False),
    "plus_hole_punch": TraversalConfig(enable_relay=False),
    "full_ladder": TraversalConfig(),
}


def nat_scenario(seed: int, traversal_label: str = "full_ladder",
                 mix: dict[NatType, float] | None = None
                 ) -> tuple[CloudSpec, MapReduceJobSpec]:
    """20-node scenario with a sampled NAT population and traversal config."""
    rng = RngRegistry(seed).stream("nat_population")
    nats = sample_nat_population(rng, 20, mix=mix or INTERNET_MIX)
    cloud = CloudSpec(
        seed=seed, n_nodes=20, mr_clients=True, nats=nats,
        # Keep the server copy so failed traversals fall back instead of
        # dooming the job — the paper's own safety net.
        mr_config=BoincMRConfig(upload_map_outputs=True),
    )
    return cloud, MapReduceJobSpec(f"nat_{traversal_label}",
                                   n_maps=20, n_reducers=5)


def run_ladder_study(seed: int = 1,
                     ladders: _t.Mapping[str, TraversalConfig] = None
                     ) -> list[NatStudyOutcome]:
    """Run the NAT scenario under every ladder configuration."""
    ladders = dict(LADDERS if ladders is None else ladders)
    out = []
    for label, traversal in ladders.items():
        out.append(_run_with_traversal(
            *nat_scenario(seed, traversal_label=label), traversal))
    return out


def _run_with_traversal(spec: CloudSpec, job: MapReduceJobSpec,
                        traversal: TraversalConfig) -> NatStudyOutcome:
    cloud = VolunteerCloud.from_spec(spec)
    # Swap the connectivity policy wholesale (all fetchers share it).
    cloud.connectivity.config = traversal
    result = run_scenario(cloud, job)
    peer_fetches = sum(c.input_fetcher.peer_fetches for c in cloud.clients)
    fallbacks = sum(c.input_fetcher.server_fallbacks for c in cloud.clients)
    return NatStudyOutcome(
        label=job.name.removeprefix("nat_"),
        total=result.total,
        method_counts=cloud.connectivity.method_counts(),
        peer_fetches=peer_fetches,
        server_fallbacks=fallbacks,
        result=result,
    )
