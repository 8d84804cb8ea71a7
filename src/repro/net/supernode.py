"""Supernode overlay network (Section III.D's alternative to server relay).

"Another possibility would be to have a client fulfill that role, thus
creating a supernode-based P2P network ... Supernodes are chosen from
ordinary nodes (selection mechanism is usually based on connectivity and
performance), and create an overlay network among themselves.  Ordinary
nodes must connect to a small number of supernodes and issue queries
through them."  (Skype / KaZaA / Gnutella style.)

This module implements that design:

- :func:`elect_supernodes` picks supernodes by *connectivity first*
  (publicly reachable hosts only — a NATed supernode cannot relay),
  *capacity second* (uplink speed, then host flops);
- :class:`SupernodeOverlay` attaches every ordinary node to its
  ``fanout`` nearest supernodes (deterministic, balanced round-robin over
  a capacity-sorted list) and answers relay queries: given two peers that
  need a relay, return a supernode adjacent to the downloader;
- relayed transfers then traverse ``mapper -> supernode -> reducer``
  instead of transiting the project server, removing the server's access
  link from the data path entirely.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .topology import Host


class NoSupernodeAvailable(RuntimeError):
    """No publicly reachable host can act as a relay."""


@dataclasses.dataclass(frozen=True, slots=True)
class SupernodeScore:
    """Ranking record used during election (kept for introspection)."""

    host: Host
    reachable: bool
    up_bps: float

    @property
    def sort_key(self) -> tuple:
        """Election order: reachable first, then fastest uplink, then name."""
        return (not self.reachable, -self.up_bps, self.host.name)


def elect_supernodes(hosts: _t.Sequence[Host], count: int) -> list[Host]:
    """Pick up to *count* supernodes: reachable hosts, best uplink first.

    Raises :class:`NoSupernodeAvailable` when not a single host is
    publicly reachable (the overlay cannot exist behind universal NAT).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    scores = [
        SupernodeScore(
            host=h,
            reachable=(h.nat is None or h.nat.accepts_inbound()),
            up_bps=h.spec.up_bps,
        )
        for h in hosts
    ]
    eligible = [s for s in scores if s.reachable]
    if not eligible:
        raise NoSupernodeAvailable(
            "no publicly reachable host can serve as a supernode")
    eligible.sort(key=lambda s: s.sort_key)
    return [s.host for s in eligible[:count]]


class SupernodeOverlay:
    """A two-tier overlay: supernodes + ordinary nodes attached to them."""

    def __init__(self, hosts: _t.Sequence[Host], n_supernodes: int = 3,
                 fanout: int = 2) -> None:
        """Elect supernodes from *hosts* and attach everyone else."""
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.supernodes: list[Host] = elect_supernodes(hosts, n_supernodes)
        self.fanout = min(fanout, len(self.supernodes))
        self._attachments: dict[str, list[Host]] = {}
        self._load: dict[str, int] = {s.name: 0 for s in self.supernodes}
        # Deterministic balanced attachment: walk hosts in name order and
        # attach each to the currently least-loaded supernodes.
        for host in sorted(hosts, key=lambda h: h.name):
            chosen = sorted(
                self.supernodes,
                key=lambda s: (self._load[s.name], s.name))[: self.fanout]
            self._attachments[host.name] = chosen
            for s in chosen:
                self._load[s.name] += 1

    def supernodes_of(self, host: Host) -> list[Host]:
        """The supernodes *host* is attached to (a supernode serves itself)."""
        if any(s.name == host.name for s in self.supernodes):
            return [host]
        return list(self._attachments.get(host.name, []))

    def pick_relay(self, downloader: Host, uploader: Host) -> Host:
        """Relay for a transfer ``uploader -> downloader``.

        Prefers a supernode both peers are attached to (one overlay hop),
        then the downloader's least-loaded supernode.  Offline supernodes
        are skipped; raises :class:`NoSupernodeAvailable` if none remain.
        """
        mine = [s for s in self.supernodes_of(downloader) if s.online]
        theirs = {s.name for s in self.supernodes_of(uploader)}
        shared = [s for s in mine if s.name in theirs]
        candidates = shared or mine or [s for s in self.supernodes if s.online]
        if not candidates:
            raise NoSupernodeAvailable(
                f"no online supernode to relay {uploader.name} -> "
                f"{downloader.name}")
        return min(candidates, key=lambda s: (self._load[s.name], s.name))
