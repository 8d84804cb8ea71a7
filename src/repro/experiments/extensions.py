"""Three design alternatives the paper sketches but never measured.

1. **Supernode relay vs server relay** (:data:`SUPERNODE`) — when NATed
   peers need a relay, routing through elected volunteer supernodes
   keeps the intermediate data off the project server entirely
   (Section III.D's Skype-style design).
2. **Adaptive replication** (:data:`ADAPTIVE`) — reputation +
   spot-checking replaces the fixed 2x redundancy, cutting executed
   results once trust is built.
3. **TCP-Nice uploads** (:data:`NICE`) — background map-output uploads
   stop competing with the inter-client transfers reducers are blocked
   on.
"""

from __future__ import annotations

import functools
import typing as _t

from ..boinc.client import ClientConfig
from ..boinc.server import ServerConfig
from ..core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from ..net import LinkSpec, NatBox, NatType
from .study import VARIANT, Claim, Study, col

_TIMEOUT_S = 48 * 3600


def relay_payload(overlay: bool, seed: int) -> dict[str, _t.Any]:
    """A NATed majority whose blocked transfers are relayed by the
    project server, or by a supernode overlay."""
    cloud = VolunteerCloud.from_spec(CloudSpec(seed=seed))
    # Three public, well-provisioned volunteers (supernode candidates)
    # and a NATed majority.
    cloud.add_volunteers(3, mr=True, link_spec=LinkSpec(200e6, 200e6, 0.001))
    cloud.add_volunteers(15, mr=True,
                         nat=NatBox(nat_type=NatType.SYMMETRIC))
    if overlay:
        cloud.enable_supernode_overlay(n_supernodes=3, fanout=2)
    job = cloud.run_job(MapReduceJobSpec("relayed", n_maps=15, n_reducers=4,
                                         input_size=600e6),
                        timeout=_TIMEOUT_S)
    host = cloud.server_host
    return {
        "total": job.makespan(),
        "server_link_gb": (host.uplink.bytes_carried
                           + host.downlink.bytes_carried) / 1e9,
        "relayed": cloud.connectivity.method_counts().get("relay", 0),
        "supernodes": len(cloud.overlay.supernodes) if overlay else 0,
    }


SUPERNODE = Study(
    name="supernode", seed=2,
    variants={"server_relay": functools.partial(relay_payload, False),
              "supernode_relay": functools.partial(relay_payload, True)},
    columns=(
        VARIANT,
        col("makespan", "{total:.0f} s"),
        col("server link carried", "{server_link_gb:.2f} GB"),
        col("relayed transfers", "{relayed}"),
        col("supernodes", "{supernodes}"),
    ),
    claims=(
        Claim("Relaying through elected volunteer supernodes takes more "
              "than 20 % of the bytes off the server's access link.",
              lambda p: p["supernode_relay"]["server_link_gb"]
              < 0.8 * p["server_relay"]["server_link_gb"]
              and p["supernode_relay"]["relayed"] > 0),
    ),
)


def adaptive_payload(adaptive: bool, seed: int) -> dict[str, _t.Any]:
    """Two jobs on 12 hosts: a warm-up that builds reputation, then the
    measured one."""
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed, server_config=ServerConfig(
            adaptive_replication=adaptive, adaptive_trust_threshold=2,
            adaptive_spot_check_rate=0.1)))
    cloud.add_volunteers(12, mr=True)
    for name in ("warm", "main"):
        job = cloud.run_job(MapReduceJobSpec(name, n_maps=12, n_reducers=3,
                                             input_size=120e6),
                            timeout=_TIMEOUT_S)
    return {
        "total": job.makespan(),
        "results_executed": sum(r.reported_at is not None
                                for r in cloud.server.db.results.values()),
        "single_accepts": len(
            cloud.tracer.select("validator.adaptive_accept")),
        "escalations": len(
            cloud.tracer.select("validator.adaptive_escalate")),
    }


ADAPTIVE = Study(
    name="adaptive", seed=5,
    variants={"fixed": functools.partial(adaptive_payload, False),
              "adaptive": functools.partial(adaptive_payload, True)},
    columns=(
        VARIANT,
        col("second job's makespan", "{total:.0f} s"),
        col("results executed (both jobs)", "{results_executed}"),
        col("single accepts", "{single_accepts}"),
        col("escalations", "{escalations}"),
    ),
    claims=(
        Claim("After one warm-up job, reputation + 10 % spot-checks "
              "execute fewer results than fixed 2x replication, at the "
              "documented risk of trusting a corrupt host.",
              lambda p: p["adaptive"]["results_executed"]
              < p["fixed"]["results_executed"]),
        Claim("It does not hurt the second job's makespan.",
              lambda p: p["adaptive"]["total"] <= p["fixed"]["total"] * 1.15),
    ),
)


def nice_payload(nice: bool, seed: int) -> dict[str, _t.Any]:
    """Map outputs uploaded for fallback *and* served to peers, over thin
    uplinks — the contention TCP-Nice is for."""
    cloud = VolunteerCloud.from_spec(CloudSpec(
        seed=seed,
        mr_config=BoincMRConfig(upload_map_outputs=True),
        client_config=ClientConfig(nice_uploads=nice)))
    cloud.add_volunteers(12, mr=True, link_spec=LinkSpec(30e6, 6e6, 0.010))
    job = cloud.run_job(MapReduceJobSpec("nice", n_maps=12, n_reducers=3,
                                         input_size=240e6),
                        timeout=_TIMEOUT_S)
    return {"total": job.makespan()}


NICE = Study(
    name="nice", seed=3,
    variants={"greedy": functools.partial(nice_payload, False),
              "nice": functools.partial(nice_payload, True)},
    columns=(VARIANT, col("total", "{total:.0f} s")),
    claims=(
        Claim("Background (TCP-Nice) map-output uploads help or tie on "
              "thin uplinks.",
              lambda p: p["nice"]["total"] <= p["greedy"]["total"] * 1.05),
    ),
)
