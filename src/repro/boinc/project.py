"""The simulated BOINC project server: :class:`SchedulerCore` on sim time.

The daemons are simulation processes polling the database on configurable
periods — these periods are *load-bearing* for the paper's results: the
dead time between the last map report and the first reduce assignment is
exactly one transitioner + validator + assimilator + feeder pipeline delay,
during which clients keep backing off (Section IV.B).

This module is the simulator's side of the server, apart from the
transport-agnostic :mod:`repro.boinc.server` so that the live gateway,
which drives the same core, loads no event kernel and no flow network.
The constants it shares with the core (``DAEMON_PERIOD_S``,
``RPC_CAPACITY``, ``RPC_PROCESS_S``) are read through
:mod:`repro.boinc.server` when used, so a test that pins one there pins
it here.
"""

from __future__ import annotations

import typing as _t

from ..net import Host, Network, SimSemaphore
from ..sim import Event, Simulator, Tracer, jittered
from . import server
from .dataserver import DataServer, ServerUnavailable
from .server import SchedulerCore, SchedulerRequest, ServerConfig

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry


class ProjectServer(SchedulerCore):
    """The simulated project server: :class:`SchedulerCore` on sim time.

    Adds the simulation transport around the shared state machine: the
    scheduler RPC gate (a :class:`SimSemaphore` modelling bounded RPC
    concurrency plus per-request processing delay), the
    :class:`~repro.boinc.dataserver.DataServer` over the flow network, the
    daemon polling processes, and the crash/stall fault hooks.
    """

    def __init__(self, sim: Simulator, net: Network, host: Host,
                 tracer: Tracer, metrics: "MetricsRegistry", rng,
                 config: ServerConfig | None = None) -> None:
        """Stand up the server (database, daemons, RPC gate) on *host*."""
        super().__init__(tracer, metrics, rng, lambda: sim.now,
                         config=config)
        self.sim = sim
        self.net = net
        self.host = host
        self.dataserver = DataServer(sim, net, host, self.tracer)
        self.publish_input = self.dataserver.publish
        self._rpc_slots = SimSemaphore(sim, server.RPC_CAPACITY, name="sched")
        self._daemons_started = False
        self._daemon_procs: dict[str, _t.Any] = {}
        #: Fault injection: daemon name -> sim time until which its passes
        #: are skipped (the process stays alive, it just does no work —
        #: a hung MySQL query, not a dead daemon).
        self._stalled_until: dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------------
    def start_daemons(self) -> None:
        """Spawn feeder/transitioner/validator/assimilator polling loops."""
        if self._daemons_started:
            raise RuntimeError("daemons already started")
        self._daemons_started = True
        for name, period in server.DAEMON_PERIOD_S.items():
            fn = getattr(self, f"_{name}_pass")
            self._daemon_procs[name] = self.sim.process(
                self._poll_loop(name, fn, period), name=name)

    def _poll_loop(self, name: str, fn: _t.Callable[[], None],
                   period: float) -> _t.Generator:
        while True:
            if self.sim.now >= self._stalled_until.get(name, 0.0):
                fn()
            yield period

    # -- fault hooks ----------------------------------------------------------
    def stall_daemon(self, name: str, duration: float) -> None:
        """Make daemon *name* skip its passes for *duration* seconds."""
        if name not in self._daemon_procs:
            raise KeyError(f"no such daemon {name!r}")
        self._stalled_until[name] = self.sim.now + duration
        self.tracer.record(self.sim.now, "server.daemon_stalled", daemon=name,
                           duration=duration)

    def crash(self) -> None:
        """Hard-stop the server: refuse RPCs, kill daemons, drop the feeder
        cache (shared memory is gone).  The database survives — BOINC state
        is durable in MySQL — so :meth:`restore` resumes where it left off.
        """
        if not self.available:
            return
        self.available = False
        self.dataserver.available = False
        for proc in self._daemon_procs.values():
            if proc.alive:
                proc.interrupt("server crash")
        self._daemon_procs.clear()
        self._stalled_until.clear()
        self._daemons_started = False
        self._feeder_visible = set()
        self.tracer.record(self.sim.now, "server.crash")

    def restore(self) -> None:
        """Bring a crashed server back: daemons restart, RPCs accepted."""
        if self.available:
            return
        self.available = True
        self.dataserver.available = True
        self.start_daemons()
        self.tracer.record(self.sim.now, "server.restore")

    # -- scheduler RPC (simulated transport) -----------------------------------
    def scheduler_rpc(self, request: SchedulerRequest) -> Event:
        """One scheduler RPC: an event that fires with the SchedulerReply
        after a jittered service delay in one of :data:`~repro.boinc.server.RPC_CAPACITY` slots, or
        fails with :class:`ServerUnavailable` while the server is down.  A
        caller that stops waiting (churn) does not cancel the server side.
        """
        reply = self.sim.event()
        if not self.available:
            self.metrics.counter("sched.refused_total").inc()
            return reply.fail(ServerUnavailable("scheduler is down"))
        grant = self._rpc_slots.acquire()

        def serve(_grant: Event | None = None) -> None:
            # A crash may land while this RPC is queued for a slot.
            if not self.available:
                self._rpc_slots.settle(grant)
                reply.fail(ServerUnavailable("scheduler crashed mid-request"))
                return
            self.sim.schedule(jittered(self.rng, server.RPC_PROCESS_S, 0.2), finish)

        def finish() -> None:
            self._rpc_slots.settle(grant)
            try:
                reply.trigger(self._handle_rpc_now(request))
            except Exception as exc:  # noqa: BLE001 - the caller's to see
                reply.fail(exc)

        if grant.triggered:  # a free slot: no grant wake-up
            serve()
        else:
            grant.add_callback(serve)
        return reply
