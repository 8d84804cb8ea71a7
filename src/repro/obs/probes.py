"""Standard probes: queue-depth gauges and the engine self-profiler.

:func:`attach_standard_probes` registers the gauges Anderson's BOINC
server-status page exposes for a real project — scheduler RPC concurrency
and queue depth, per-daemon backlogs, in-flight network flows and link
utilisation, client task-state occupancy — against a
:class:`~repro.obs.metrics.MetricsRegistry`.  Each gauge is a callback
read when a summary or scrape asks for it.

:class:`SelfProfiler` hooks :attr:`Simulator.dispatch_hook` and aggregates
*wall-clock* time per callback kind (process name prefix or function
qualname), which is how we find the simulator's own hot spots.  Wall-clock
readings never feed back into simulated time or exported traces, so
profiling cannot perturb determinism.
"""

from __future__ import annotations

import typing as _t

from .metrics import MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.system import VolunteerCloud
    from ..gateway.server import GatewayServer
    from ..sim import Simulator


def attach_standard_probes(cloud: "VolunteerCloud") -> MetricsRegistry:
    """Register the standard gauge set for a :class:`repro.core.system.VolunteerCloud`.

    Idempotent (gauges are get-or-create).  Returns the registry the
    probes were attached to, ``cloud.metrics``.
    """
    from ..boinc.client import TaskState
    from ..boinc.model import WorkunitState

    reg = cloud.metrics
    server = cloud.server
    net = cloud.net

    reg.gauge("sched.rpc_in_use", "scheduler RPC slots in use",
              fn=lambda: server._rpc_slots.in_use)
    reg.gauge("sched.rpc_queue_depth", "RPCs queued for a scheduler slot",
              fn=lambda: server._rpc_slots.waiting)
    reg.gauge("daemon.feeder.cache_visible", "results in the feeder cache",
              fn=lambda: len(server._feeder_visible))
    reg.gauge("daemon.transitioner.backlog",
              "dirty workunits awaiting a transitioner pass",
              fn=lambda: len(server._dirty_wus))
    reg.gauge("daemon.validator.backlog",
              "workunits flagged need_validate",
              fn=lambda: sum(1 for wu in server.db.workunits.values()
                             if wu.need_validate
                             and wu.state is WorkunitState.ACTIVE))
    reg.gauge("daemon.assimilator.backlog",
              "validated workunits awaiting assimilation",
              fn=lambda: sum(1 for wu in server.db.workunits.values()
                             if wu.state is WorkunitState.VALIDATED))
    reg.gauge("net.flows_active", "in-flight bulk transfers",
              fn=lambda: net.flownet.active_count)
    reg.gauge("net.components", "independent flow allocation domains",
              fn=lambda: net.flownet.allocator.component_count())
    reg.gauge("net.server_uplink_util", "server uplink utilisation 0..1",
              fn=lambda: net.flownet.utilisation(cloud.server_host.uplink))
    reg.gauge("net.server_downlink_util", "server downlink utilisation 0..1",
              fn=lambda: net.flownet.utilisation(cloud.server_host.downlink))
    reg.gauge("sim.queue_depth", "live callbacks in the event queue",
              fn=cloud.sim.pending)

    def _occupancy(state: str) -> _t.Callable[[], float]:
        def count() -> float:
            return sum(1 for c in cloud.clients
                       for t in c.tasks if t.state == state)
        return count

    for state in (TaskState.DOWNLOADING, TaskState.WAITING_CPU,
                  TaskState.COMPUTING, TaskState.UPLOADING,
                  TaskState.READY_TO_REPORT):
        reg.gauge(f"client.tasks_{state}", f"client tasks in state {state}",
                  fn=_occupancy(state))
    return reg


def attach_gateway_probes(gateway: "GatewayServer") -> MetricsRegistry:
    """Register live-deployment gauges for a :class:`repro.gateway.GatewayServer`.

    The wall-clock analogue of :func:`attach_standard_probes`: open HTTP
    connections, feeder-cache occupancy, database occupancy (hosts,
    unsent / in-progress results), blob-store size, and running jobs.
    Idempotent; returns the registry the probes were attached to,
    ``gateway.metrics``.
    """
    from ..boinc.model import ResultState

    reg = gateway.metrics
    core = gateway.core
    reg.gauge("gateway.connections_active", "open HTTP connections",
              fn=lambda: gateway.connections_active)
    reg.gauge("daemon.feeder.cache_visible", "results in the feeder cache",
              fn=lambda: len(core._feeder_visible))
    reg.gauge("gateway.hosts", "registered volunteer hosts",
              fn=lambda: len(core.db.hosts))
    reg.gauge("gateway.results_unsent", "results waiting for a host",
              fn=lambda: len(core.db.unsent_results()))
    reg.gauge("gateway.results_in_progress", "results out on lease",
              fn=lambda: sum(1 for r in core.db.results.values()
                             if r.state is ResultState.IN_PROGRESS))
    reg.gauge("gateway.blobs", "blobs held by the store",
              fn=lambda: len(gateway.store))
    reg.gauge("gateway.jobs_running", "live jobs not yet sealed",
              fn=lambda: sum(1 for j in gateway.jobs.jobs.values()
                             if not j.finished))
    return reg


#: Callback kinds :meth:`SelfProfiler.render` lists, costliest first.
PROFILE_ROWS = 5


class SelfProfiler:
    """Wall-clock dispatch-time accounting per callback kind.

    A *kind* is the process-name prefix for generator processes (``task``,
    ``client``, ``rpc``, ``feeder`` …) and the function qualname for bare
    callbacks — coarse enough to aggregate, fine enough to point at the
    hot subsystem.
    """

    def __init__(self, sim: Simulator) -> None:
        """Create the profiler and hook *sim*'s dispatch loop."""
        if sim.dispatch_hook is not None:
            raise RuntimeError("simulator already has a dispatch hook")
        # Bound here, not with this module: the live gateway imports the
        # module for its probes and runs no simulated process.
        from ..sim.process import Process
        self._process = Process
        self.totals: dict[str, list[float]] = {}  # kind -> [count, seconds]
        sim.dispatch_hook = self._observe

    # -- accounting ------------------------------------------------------------
    def _observe(self, fn: _t.Callable[..., None], args: tuple,
                 elapsed: float) -> None:
        entry = self.totals.setdefault(self._classify(fn), [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed

    def _classify(self, fn: _t.Callable[..., None]) -> str:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, self._process):
            name = owner.name or "process"
            return f"process:{name.split(':', 1)[0]}"
        if owner is not None:
            return f"{type(owner).__name__}.{fn.__name__}"
        return getattr(fn, "__qualname__", repr(fn))

    # -- reporting ------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds spent dispatching, all kinds."""
        return sum(seconds for _count, seconds in self.totals.values())

    def top(self, n: int) -> list[tuple[str, int, float]]:
        """``(kind, dispatch_count, wall_seconds)`` rows, hottest first."""
        rows = [(kind, int(count), seconds)
                for kind, (count, seconds) in self.totals.items()]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows[:n]

    def render(self) -> str:
        """Plain-text profile of the :data:`PROFILE_ROWS` costliest
        callback kinds."""
        total = self.total_seconds
        lines = [f"total dispatch wall time: {total * 1e3:.1f} ms over "
                 f"{sum(int(c) for c, _s in self.totals.values())} callbacks"]
        for kind, count, seconds in self.top(PROFILE_ROWS):
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(f"  {kind:32s} {count:8d} calls "
                         f"{seconds * 1e3:9.1f} ms ({share:4.1f}%)")
        return "\n".join(lines)
