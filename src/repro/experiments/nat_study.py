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

import functools
import typing as _t

from ..core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from ..net import NatType, TraversalConfig, sample_nat_population
from ..sim import RngRegistry
from .scenario import fetch_counts, metrics_payload, run_scenario
from .study import VARIANT, Claim, Study, col

#: An Internet-like volunteer NAT population (see ``sample_nat_population``).
INTERNET_MIX: dict[NatType, float] = {
    NatType.NONE: 0.20,
    NatType.FULL_CONE: 0.15,
    NatType.RESTRICTED: 0.20,
    NatType.PORT_RESTRICTED: 0.30,
    NatType.SYMMETRIC: 0.10,
    NatType.FIREWALL: 0.05,
}


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


def nat_scenario(seed: int, traversal_label: str = "full_ladder"
                 ) -> tuple[CloudSpec, MapReduceJobSpec]:
    """20-node scenario with a sampled NAT population and traversal config."""
    rng = RngRegistry(seed).stream("nat_population")
    nats = sample_nat_population(rng, 20, mix=INTERNET_MIX)
    cloud = CloudSpec(
        seed=seed, n_nodes=20, mr_clients=True, nats=nats,
        # Keep the server copy so failed traversals fall back instead of
        # dooming the job — the paper's own safety net.
        mr_config=BoincMRConfig(upload_map_outputs=True),
    )
    return cloud, MapReduceJobSpec(f"nat_{traversal_label}",
                                   n_maps=20, n_reducers=5)


def ladder_payload(label: str, seed: int) -> dict[str, _t.Any]:
    """Run the NAT scenario under the ladder configuration *label*."""
    spec, job = nat_scenario(seed, traversal_label=label)
    cloud = VolunteerCloud.from_spec(spec)
    # Swap the connectivity policy wholesale (all fetchers share it).
    cloud.connectivity.config = LADDERS[label]
    result = run_scenario(cloud, job)
    methods = cloud.connectivity.method_counts()
    return {
        **metrics_payload(result.metrics),
        **fetch_counts(cloud),
        **{method: methods.get(method, 0)
           for method in ("direct", "reversal", "hole_punch", "relay",
                          "failed")},
    }


def _peer_fetches_rise(p: _t.Mapping[str, _t.Any]) -> bool:
    peer = [p[label]["peer_fetches"] for label in LADDERS]
    return peer == sorted(peer) and peer[-1] > peer[0]


STUDY = Study(
    name="nat", seed=1,
    variants={label: functools.partial(ladder_payload, label)
              for label in LADDERS},
    columns=(
        VARIANT,
        col("peer fetches", "{peer_fetches}"),
        col("server fallbacks", "{server_fallbacks}"),
        col("direct", "{direct}"),
        col("reversal", "{reversal}"),
        col("hole punch", "{hole_punch}"),
        col("relay", "{relay}"),
        col("failed attempts", "{failed}"),
        col("total", "{total:.1f} s"),
    ),
    claims=(
        Claim("Each rung of the ladder recovers more inter-client "
              "transfers.", _peer_fetches_rise),
        Claim("The full Skype-style ladder eliminates server fallbacks "
              "entirely.",
              lambda p: p["full_ladder"]["server_fallbacks"] == 0),
        Claim("With direct connections only, most reduce inputs come from "
              "the server.",
              lambda p: p["direct_only"]["server_fallbacks"]
              > p["direct_only"]["peer_fetches"]),
        Claim("Relayed transfers appear only once the relay rung is "
              "enabled.",
              lambda p: all((row["relay"] > 0) == (label == "full_ladder")
                            for label, row in p.items())),
    ),
)
