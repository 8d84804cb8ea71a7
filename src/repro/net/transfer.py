"""Peer-to-peer transfer machinery: connection limits, relays, failures.

BOINC-MR clients keep "a threshold for a maximum number of inter-client
connections, so as to not overload the network" (Section III.C).  This
module provides the counting semaphore that enforces it, plus the
``peer_download`` process that performs one inter-client download end to
end: traversal establishment (see :mod:`repro.net.nat`), connection-slot
acquisition at both endpoints, and the bulk flow itself (optionally via a
relay).  Failures are injected by :mod:`repro.faults`, not here.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..sim import Event, Simulator
from .flows import FlowError
from .nat import ConnectivityPolicy, TraversalMethod, TraversalOutcome
from .topology import Host, HostOffline, Network


class TransferFailed(RuntimeError):
    """An inter-client download could not be completed."""

    def __init__(self, reason: str, outcome: TraversalOutcome | None = None) -> None:
        """Failure with a reason and, for NAT failures, the traversal outcome."""
        super().__init__(reason)
        self.reason = reason
        self.outcome = outcome


class SimSemaphore:
    """FIFO counting semaphore for simulation processes.

    ``acquire`` returns an event to ``yield`` on; ``release`` wakes the
    longest-waiting acquirer.  Releases are explicit — pair them in a
    try/finally inside the owning process.
    """

    __slots__ = ("sim", "capacity", "name", "in_use", "_waiters",
                 "granted_total", "released_total", "cancelled_total")

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        """A counting semaphore with *capacity* slots on *sim*'s clock."""
        if capacity < 1:
            raise ValueError("semaphore capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: list[Event] = []
        #: Accounting counters; ``granted_total - released_total == in_use``
        #: is an invariant the :class:`repro.faults.RunAuditor` checks.
        self.granted_total = 0
        self.released_total = 0
        self.cancelled_total = 0

    def acquire(self) -> Event:
        """Request a slot; the returned event triggers when granted."""
        ev = self.sim.event(name=f"sem:{self.name}")
        if self.in_use < self.capacity:
            self.in_use += 1
            self.granted_total += 1
            ev.trigger()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot, handing it straight to the next waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"semaphore {self.name!r} released below zero")
        self.released_total += 1
        if self._waiters:
            # Hand the slot straight to the next waiter; in_use is unchanged.
            self.granted_total += 1
            self._waiters.pop(0).trigger()
        else:
            self.in_use -= 1

    def cancel(self, grant: Event) -> bool:
        """Withdraw a still-queued ``acquire`` from the wait list.

        Returns False when *grant* is not waiting (already granted, or
        never issued by this semaphore) — the caller then owns a slot and
        must :meth:`release` it instead.
        """
        try:
            self._waiters.remove(grant)
        except ValueError:
            return False
        self.cancelled_total += 1
        return True

    def settle(self, grant: Event) -> None:
        """Unwind an ``acquire`` whatever state it reached.

        The one safe call for a ``finally`` block: releases the slot when
        *grant* was granted (even by a same-instant hand-off to a process
        that was just interrupted) and withdraws it from the wait queue
        when it never was — so a process killed between ``acquire`` and
        the grant leaves no phantom waiter to swallow a future slot.
        """
        if grant.triggered:
            self.release()
        else:
            self.cancel(grant)

    @property
    def balance(self) -> int:
        """Slots granted and not yet released (must equal ``in_use``)."""
        return self.granted_total - self.released_total

    @property
    def waiting(self) -> int:
        """How many acquirers are queued for a slot."""
        return len(self._waiters)


class TransferEndpoint:
    """Per-host upload/download connection-slot accounting."""

    __slots__ = ("host", "upload_slots", "download_slots", "corrupt_serves")

    def __init__(self, sim: Simulator, host: Host,
                 max_upload_conns: int = 8, max_download_conns: int = 8) -> None:
        """Connection-slot semaphores for one host's uploads/downloads."""
        self.host = host
        self.upload_slots = SimSemaphore(sim, max_upload_conns,
                                         name=f"{host.name}.up")
        self.download_slots = SimSemaphore(sim, max_download_conns,
                                           name=f"{host.name}.down")
        #: Fault injection: while True, every payload served from this
        #: endpoint arrives corrupt and fails the downloader's checksum.
        self.corrupt_serves = False


@dataclasses.dataclass(slots=True)
class TransferRecord:
    """Outcome of one completed peer download (a failed one raises
    :class:`TransferFailed`)."""

    method: TraversalMethod | None
    size: float
    started_at: float
    finished_at: float
    relayed: bool = False
    #: The serving endpoint corrupted the payload (fault injection); the
    #: downloader's checksum validation will reject this copy.
    corrupted: bool = False

    @property
    def duration(self) -> float:
        """Wall-clock (sim) seconds the transfer took."""
        return self.finished_at - self.started_at


def peer_download(
    sim: Simulator,
    net: Network,
    policy: ConnectivityPolicy,
    src: TransferEndpoint,
    dst: TransferEndpoint,
    size: float,
    relay: Host | None = None,
    label: str = "",
) -> _t.Generator:
    """Process body: download *size* bytes from ``src.host`` to ``dst.host``.

    Returns a :class:`TransferRecord`; raises :class:`TransferFailed` on
    traversal failure or endpoint churn.  Run it with
    ``sim.process(peer_download(...))``.
    """
    started = sim.now
    outcome = policy.establish(dst.host.nat, src.host.nat)
    if not outcome.ok:
        raise TransferFailed(
            f"no connectivity {dst.host.name} <- {src.host.name}", outcome)
    if outcome.relayed and relay is None:
        raise TransferFailed(
            f"relay required for {dst.host.name} <- {src.host.name} "
            "but no relay host configured", outcome)
    if outcome.setup_delay > 0:
        yield outcome.setup_delay

    up = src.upload_slots.acquire()
    down = dst.download_slots.acquire()
    flow = None
    try:
        yield sim.all_of([up, down])
        rtt = net.rtt(src.host, dst.host)
        if rtt > 0:
            yield rtt
        extra = ()
        if outcome.relayed:
            assert relay is not None
            extra = (relay.downlink, relay.uplink)
        try:
            flow = net.transfer(src.host, dst.host, size,
                                label=label or f"p2p:{src.host.name}->{dst.host.name}",
                                extra_links=extra)
        except HostOffline as exc:
            raise TransferFailed(str(exc), outcome) from exc
        try:
            yield flow.done
        except FlowError as exc:
            raise TransferFailed(str(exc), outcome) from exc
    finally:
        # An interrupt (churn kill) can land at any yield above.  The flow
        # must not keep consuming bandwidth unobserved, and the connection
        # slots must come back whether the grants fired or are still queued.
        if flow is not None and not flow.finished:
            net.flownet.abort_flow(flow, reason="peer download cancelled")
        src.upload_slots.settle(up)
        dst.download_slots.settle(down)

    return TransferRecord(method=outcome.method, size=size,
                          started_at=started, finished_at=sim.now,
                          relayed=outcome.relayed,
                          corrupted=src.corrupt_serves)
