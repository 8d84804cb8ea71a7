"""Hosts, access links, and the network facade.

The testbed in the paper (UT Austin CIAS Emulab) is a switched LAN where
every machine has 100 Mbit interfaces; a volunteer deployment is a star of
asymmetric DSL/cable access links around well-provisioned project servers.
Both are captured by giving each :class:`Host` an uplink and a downlink and
letting :class:`Network` route every transfer through the endpoints' access
links (a non-blocking core, which is accurate for both Emulab's switch and
the Internet backbone relative to last-mile links).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..sim import Simulator, Tracer
from .flows import Flow, FlowNetwork, Link

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from .nat import NatBox


@dataclasses.dataclass(frozen=True, slots=True)
class LinkSpec:
    """Access-link speeds in bits/s (down, up) plus one-way latency."""

    down_bps: float = 100e6
    up_bps: float = 100e6
    latency_s: float = 0.0005  # LAN-ish by default

    def __post_init__(self) -> None:
        if self.down_bps <= 0 or self.up_bps <= 0:
            raise ValueError("link speeds must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")


#: Emulab pc class from the paper: 100 Mbit full duplex, sub-ms switch latency.
EMULAB_LINK = LinkSpec(down_bps=100e6, up_bps=100e6, latency_s=0.0005)
#: A typical 2011 home broadband profile (16/1 Mbit ADSL2+, 20 ms).
ADSL_LINK = LinkSpec(down_bps=16e6, up_bps=1e6, latency_s=0.020)
#: A typical 2011 cable profile (50/5 Mbit, 15 ms).
CABLE_LINK = LinkSpec(down_bps=50e6, up_bps=5e6, latency_s=0.015)
#: University / project server connectivity (1 Gbit symmetric).
SERVER_LINK = LinkSpec(down_bps=1e9, up_bps=1e9, latency_s=0.002)


class Host:
    """A network endpoint with its own access link and optional NAT box."""

    def __init__(self, name: str, spec: LinkSpec,
                 nat: "NatBox | None" = None) -> None:
        """A host with dedicated up/down access links (and optional NAT)."""
        self.name = name
        self.spec = spec
        self.nat = nat
        self.uplink = Link(f"{name}.up", spec.up_bps)
        self.downlink = Link(f"{name}.down", spec.down_bps)
        #: Set False to simulate the host going offline (churn).
        self.online = True


class HostOffline(RuntimeError):
    """A transfer was attempted to or from an offline host."""


class NetworkPartitioned(HostOffline):
    """A transfer was attempted across an active network partition.

    Subclasses :class:`HostOffline` so every existing retry/fallback path
    treats a partition exactly like the endpoint being unreachable — which
    is what it looks like from either side.
    """


class Network:
    """Facade over :class:`FlowNetwork` exposing host-to-host transfers."""

    def __init__(self, sim: Simulator, tracer: Tracer | None = None,
                 metrics: "MetricsRegistry | None" = None) -> None:
        """An empty network over *sim*'s clock."""
        self.sim = sim
        self.tracer = tracer
        self.flownet = FlowNetwork(sim, tracer=tracer, metrics=metrics)
        self.hosts: dict[str, Host] = {}
        self._host_by_link: dict[Link, Host] = {}
        #: Active partition: host name -> group id.  Hosts not listed form
        #: an implicit group of their own.  ``None`` = no partition.
        self._partition: dict[str, int] | None = None

    # -- construction -----------------------------------------------------------
    def add_host(self, name: str, spec: LinkSpec = EMULAB_LINK,
                 nat: "NatBox | None" = None) -> Host:
        """Register a host; names must be unique."""
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(name, spec, nat=nat)
        self.hosts[name] = host
        self._host_by_link[host.uplink] = host
        self._host_by_link[host.downlink] = host
        return host

    def host(self, name: str) -> Host:
        """Look up a host by name (KeyError if absent)."""
        return self.hosts[name]

    # -- transfers ----------------------------------------------------------------
    def latency(self, src: Host, dst: Host) -> float:
        """One-way latency between two hosts (sum of access latencies)."""
        return src.spec.latency_s + dst.spec.latency_s

    def rtt(self, src: Host, dst: Host) -> float:
        """Round-trip time between two hosts."""
        return 2.0 * self.latency(src, dst)

    def transfer(self, src: Host, dst: Host, size_bytes: float,
                 label: str = "", max_rate: float | None = None,
                 background: bool = False,
                 extra_links: _t.Sequence[Link] = ()) -> Flow:
        """Start a bulk transfer ``src -> dst``; returns the :class:`Flow`.

        The flow traverses ``src.uplink`` and ``dst.downlink`` (plus any
        *extra_links*, e.g. a shared server trunk).  Raises
        :class:`HostOffline` if either endpoint is offline at start time;
        hosts going offline mid-flow are handled by the caller aborting the
        flow (see :meth:`drop_host_flows`).
        """
        if not src.online:
            raise HostOffline(f"source host {src.name} is offline")
        if not dst.online:
            raise HostOffline(f"destination host {dst.name} is offline")
        if not self.reachable(src, dst):
            raise NetworkPartitioned(
                f"{src.name} and {dst.name} are on opposite sides of a "
                "network partition")
        name = label or f"{src.name}->{dst.name}"
        links = [src.uplink, dst.downlink, *extra_links]
        return self.flownet.start_flow(name, links, size_bytes,
                                       max_rate=max_rate, background=background)

    def drop_host_flows(self, host: Host, reason: str = "host offline") -> int:
        """Abort every active flow touching *host*; returns how many."""
        victims = self.flownet.flows_using((host.uplink, host.downlink))
        for f in victims:
            self.flownet.abort_flow(f, reason=reason)
        return len(victims)

    def set_online(self, host: Host, online: bool) -> None:
        """Toggle a host's availability, killing its flows on departure."""
        if host.online and not online:
            host.online = False
            self.drop_host_flows(host)
        else:
            host.online = online

    # -- partitions ----------------------------------------------------------------
    def flow_hosts(self, flow: Flow) -> list[Host]:
        """Every registered host whose access link *flow* traverses."""
        out: list[Host] = []
        for link in flow.links:
            host = self._host_by_link.get(link)
            if host is not None and host not in out:
                out.append(host)
        return out

    def reachable(self, a: Host, b: Host) -> bool:
        """Can *a* and *b* currently exchange traffic (partition-wise)?"""
        if self._partition is None:
            return True
        return (self._partition.get(a.name, -1)
                == self._partition.get(b.name, -1))

    def set_partition(self, groups: _t.Sequence[_t.Sequence[str]]) -> int:
        """Partition the network into *groups* of host names.

        Hosts in different groups cannot start transfers to each other;
        hosts not named in any group form one implicit group together (so
        ``[["a", "b"]]`` isolates that island from the rest of the world).
        Active flows crossing a boundary are aborted.  Returns how many
        flows were dropped.  Replaces any previous partition.
        """
        mapping: dict[str, int] = {}
        for gid, names in enumerate(groups):
            for name in names:
                if name not in self.hosts:
                    raise ValueError(f"unknown host {name!r} in partition")
                mapping[name] = gid
        self._partition = mapping
        victims = []
        for flow in list(self.flownet.active):
            touched = self.flow_hosts(flow)
            sides = {mapping.get(h.name, -1) for h in touched}
            if len(sides) > 1:
                victims.append(flow)
        for flow in victims:
            self.flownet.abort_flow(flow, reason="network partition")
        return len(victims)

    def clear_partition(self) -> None:
        """Heal the partition; all hosts can reach each other again."""
        self._partition = None

