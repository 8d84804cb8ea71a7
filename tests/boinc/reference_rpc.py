"""Test oracle: the simulated scheduler RPC as a process, and the client's
backoff wait as an ``AnyOf``, both kept verbatim from before they became
timers.

``scheduler_rpc`` was ``ProjectServer.scheduler_rpc``: a process body
that acquires an RPC slot, yields the grant (a same-instant wake-up even
when the slot was free), re-checks that the server is up, draws the
service jitter, yields a ``Timeout`` and returns the handler's reply,
settling the slot in ``finally``.  A no-work poll cost the kernel five
dispatched events on the server side alone.  ``main`` was
``Client._main``; its backoff wait is ``sim.any_of([wake,
sim.timeout(delay)])``, a timer plus two same-instant hops.

``process_rpc(server, request)`` starts the oracle RPC the way the client
used to (``sim.process(..., name="rpc:<host>")``); a ``Process`` is an
``Event``, so it drops in where ``ProjectServer.scheduler_rpc`` returns
the reply event.  ``test_rpc_differential.py`` holds the product to it.
"""

from __future__ import annotations

import typing as _t

from repro.boinc.dataserver import ServerUnavailable
from repro.boinc.server import SchedulerRequest
from repro.sim import Interrupted, Process, jittered


def scheduler_rpc(self, request: SchedulerRequest) -> _t.Generator:
    """Process body handling one scheduler RPC; returns a SchedulerReply.

    Raises :class:`ServerUnavailable` when the server is down (crash
    fault) — the client retries with the paper's exponential backoff.
    """
    if not self.available:
        if self.metrics is not None:
            self.metrics.counter("sched.refused_total").inc()
        raise ServerUnavailable("scheduler is down")
    grant = self._rpc_slots.acquire()
    try:
        yield grant
        # A crash may land while this RPC is queued for a slot.
        if not self.available:
            raise ServerUnavailable("scheduler crashed mid-request")
        delay = self.config.rpc_process_s
        if self.rng is not None:
            delay = jittered(self.rng, delay, 0.2)
        yield self.sim.timeout(delay)
        return self._handle_rpc_now(request)
    finally:
        self._rpc_slots.settle(grant)


def process_rpc(server, request: SchedulerRequest) -> Process:
    """Run the oracle RPC as its own process, as the client once did."""
    host = server.db.hosts[request.host_id].name
    return server.sim.process(scheduler_rpc(server, request),
                              name=f"rpc:{host}")


def main(self) -> _t.Generator:
    """``Client._main`` with the ``AnyOf`` backoff wait."""
    # Desynchronise initial contact: real volunteers never start in
    # lockstep, and a deterministic stagger keeps runs reproducible.
    stagger = float(self.rng.uniform(0.0, self.config.initial_stagger_s))
    if stagger > 0:
        yield stagger
    sim, config = self.sim, self.config
    try:
        while True:
            queued_s = self._est_queued_s()
            want_work = queued_s < config.work_buffer_min_s
            have_reports = bool(self._ready)
            urgent = have_reports and config.report_immediately
            now = sim.now
            if (want_work or have_reports) and now >= self._comm_gate and (
                    now >= self._next_allowed_rpc or urgent):
                yield from self._rpc_cycle(want_work, queued_s)
                continue
            self._wake = sim.event(self._wake_name)
            if want_work or have_reports:
                wait_until = 0.0 if urgent else self._next_allowed_rpc
                wait_until = max(wait_until, self._comm_gate)
                delay = max(0.0, wait_until - now)
                yield sim.any_of([self._wake, sim.timeout(delay)])
            else:
                yield self._wake
    except Interrupted:
        return
