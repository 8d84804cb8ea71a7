"""Deterministic application of :class:`FaultSpec`s to a running cloud.

The injector schedules every fault of a plan on simulated time, applies
it through the substrate's own fault surface (``Network.set_online``,
``DataServer.available``, ``ProjectServer.crash`` …), and undoes it when
its duration elapses.  All randomness — which host is "random", which
served payload is corrupted — comes from one dedicated seeded stream
(``rngs.stream("faults")``), so the same seed + the same plan injects the
same faults at the same instants into the same targets, and the exported
chrome trace stays byte-identical run over run.

Every begin/end emits a ``fault.begin``/``fault.end`` tracer record (the
span builder pairs them into spans on the ``faults`` timeline track) and
ticks ``repro.obs`` metrics.
"""

from __future__ import annotations

import typing as _t


from .spec import FaultSpec

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..boinc.client import Client
    from ..core.system import VolunteerCloud
    from .plans import ChaosPlan

#: Fault kinds whose target selects volunteer hosts.
_PER_HOST = frozenset({"link_flap", "bandwidth", "peer_corrupt",
                       "straggler", "byzantine"})


class FaultInjector:
    """Arms one chaos plan against one :class:`repro.core.system.VolunteerCloud`."""

    def __init__(self, cloud: "VolunteerCloud",
                 plan: "ChaosPlan | _t.Sequence[FaultSpec]") -> None:
        """Arm *plan*'s faults against *cloud* (scheduled at start())."""
        self.cloud = cloud
        self.specs: tuple[FaultSpec, ...] = tuple(getattr(plan, "faults", plan))
        self.rng = cloud.rngs.stream("faults")
        self.tracer = cloud.tracer
        self.metrics = cloud.metrics
        #: Chronological log of applied faults (fid, kind, target, begin, end).
        self.events: list[dict[str, _t.Any]] = []
        self.active = 0
        self._armed = False

    # -- scheduling -----------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every fault of the plan; idempotent."""
        if self._armed:
            return self
        self._armed = True
        for idx, spec in enumerate(self.specs):
            self.cloud.sim.at(spec.at, self._begin, f"f{idx}", spec)
        return self

    def _begin(self, fid: str, spec: FaultSpec) -> None:
        undo, target = self._apply(spec)
        self.active += 1
        self.events.append({"fault": fid, "kind": spec.kind, "target": target,
                            "begin": self.cloud.sim.now,
                            "end": self.cloud.sim.now + spec.duration})
        self.tracer.record(self.cloud.sim.now, "fault.begin", fault=fid,
                           kind=spec.kind, target=target,
                           duration=spec.duration)
        self.metrics.counter("faults.injected_total").inc()
        self.metrics.gauge("faults.active").set(self.active)
        self.cloud.sim.schedule(spec.duration, self._end, fid, spec, undo,
                                target)

    def _end(self, fid: str, spec: FaultSpec, undo: _t.Callable[[], None],
             target: str) -> None:
        undo()
        self.active -= 1
        self.tracer.record(self.cloud.sim.now, "fault.end", fault=fid,
                           kind=spec.kind, target=target)
        self.metrics.gauge("faults.active").set(self.active)

    # -- target resolution ------------------------------------------------------
    def _pick_clients(self, kind: str, sel: str) -> list["Client"]:
        clients = self.cloud.clients
        if not clients:
            raise ValueError(f"fault {kind!r} needs volunteer hosts")
        sel = sel or "random"
        if sel == "all":
            return list(clients)
        if sel == "random" or sel.startswith("random:"):
            n = 1 if sel == "random" else int(sel.split(":", 1)[1])
            n = min(n, len(clients))
            idx = self.rng.choice(len(clients), size=n, replace=False)
            return [clients[i] for i in sorted(int(i) for i in idx)]
        for c in clients:
            if c.name == sel:
                return [c]
        raise ValueError(f"fault target {sel!r} matches no client")

    # -- application ------------------------------------------------------------
    def _apply(self, spec: FaultSpec) -> tuple[_t.Callable[[], None], str]:
        """Apply *spec* now; returns (undo, target-description)."""
        if spec.kind in _PER_HOST:
            clients = self._pick_clients(spec.kind, spec.target)
            undos = [self._apply_host_fault(spec, c) for c in clients]

            def undo_all() -> None:
                for u in undos:
                    u()
            return undo_all, ",".join(c.name for c in clients)
        handler = getattr(self, f"_apply_{spec.kind}")
        return handler(spec)

    def _apply_host_fault(self, spec: FaultSpec,
                          client: "Client") -> _t.Callable[[], None]:
        net = self.cloud.net
        if spec.kind == "link_flap":
            net.set_online(client.host, False)

            def undo() -> None:
                # Churn may have taken (or permanently departed) this host
                # while its link was down; the flap must not resurrect it.
                if client.offline:
                    return
                net.set_online(client.host, True)
            return undo
        if spec.kind == "bandwidth":
            factor = spec.params.get("factor", 0.1)
            saved = [(client.host.uplink, client.host.uplink.capacity),
                     (client.host.downlink, client.host.downlink.capacity)]
            for link, cap in saved:
                link.capacity = cap * factor
            net.flownet.recompute()

            def undo() -> None:
                for link, cap in saved:
                    link.capacity = cap
                net.flownet.recompute()
            return undo
        if spec.kind == "peer_corrupt":
            client.endpoint.corrupt_serves = True

            def undo() -> None:
                client.endpoint.corrupt_serves = False
            return undo
        if spec.kind == "straggler":
            client.slowdown = spec.params.get("factor", 4.0)

            def undo() -> None:
                client.slowdown = 1.0
            return undo
        if spec.kind == "byzantine":
            client.corrupt_results = True

            def undo() -> None:
                client.corrupt_results = False
            return undo
        raise AssertionError(f"unhandled per-host kind {spec.kind!r}")

    def _apply_partition(self, spec: FaultSpec) -> tuple[_t.Callable[[], None], str]:
        net = self.cloud.net
        groups = spec.params.get("groups")
        if groups is None:
            n = spec.params.get("isolate", 1)
            groups = [[c.name for c in self._pick_clients(
                spec.kind, f"random:{n}")]]
        net.set_partition(groups)

        def undo() -> None:
            net.clear_partition()
        return undo, "|".join(",".join(g) for g in groups)

    def _apply_dataserver_outage(
            self, spec: FaultSpec) -> tuple[_t.Callable[[], None], str]:
        ds = self.cloud.server.dataserver
        ds.available = False

        def undo() -> None:
            # A concurrent server_crash owns the flag until restore().
            if self.cloud.server.available:
                ds.available = True
        return undo, "dataserver"

    def _apply_dataserver_slow(
            self, spec: FaultSpec) -> tuple[_t.Callable[[], None], str]:
        ds = self.cloud.server.dataserver
        previous = ds.slow_factor
        ds.slow_factor = spec.params.get("factor", 0.1)

        def undo() -> None:
            ds.slow_factor = previous
        return undo, "dataserver"

    def _apply_transfer_corrupt(
            self, spec: FaultSpec) -> tuple[_t.Callable[[], None], str]:
        ds = self.cloud.server.dataserver
        ds.corrupt_rate = spec.params.get("rate", 1.0)
        ds.corrupt_rng = self.rng

        def undo() -> None:
            ds.corrupt_rate = 0.0
            ds.corrupt_rng = None
        return undo, "dataserver"

    def _apply_daemon_stall(
            self, spec: FaultSpec) -> tuple[_t.Callable[[], None], str]:
        server = self.cloud.server
        name = spec.params.get("daemon", "transitioner")
        if name in server._daemon_procs:
            server.stall_daemon(name, spec.duration)

        def undo() -> None:
            server._stalled_until.pop(name, None)
        return undo, name

    def _apply_server_crash(
            self, spec: FaultSpec) -> tuple[_t.Callable[[], None], str]:
        server = self.cloud.server
        server.crash()

        def undo() -> None:
            server.restore()
        return undo, "server"
