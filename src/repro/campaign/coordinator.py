"""The campaign coordinator: lease cells to worker processes over TCP.

:class:`CampaignCoordinator` is the server half of the distributed
campaign control plane.  It speaks a line-JSON protocol (one
canonical-JSON object per line, request/response in lockstep per
connection) with any number of :class:`repro.campaign.worker.CampaignWorker`
processes — locally spawned or connecting from other hosts — and it
survives them the way BOINC's server survives volunteers:

- every cell is handed out as a :class:`repro.campaign.lease.Lease`
  with a deadline derived from the campaign's per-cell ``timeout_s``;
- worker liveness is tracked via heartbeats *and* connection EOF, so a
  SIGKILLed worker's cells are reclaimed within one sweep interval;
- reclaimed cells are re-leased until the retry budget is spent, then
  quarantined (a ``failed`` record with the error in its ``meta``);
- when the pending queue is dry, remaining in-flight cells are stolen
  onto idle workers (first result wins, losers are revoked).

Results stream into the coordinator's authoritative
:class:`~repro.campaign.store.ResultStore` as they arrive; workers may
additionally keep per-worker shards, which
:func:`repro.campaign.store.merge_stores` folds into one resumable
store after the fact.  A built-in chaos hook (``chaos_kills``) SIGKILLs
spawned workers mid-cell to prove the invariant the tests and the CI
control-plane job assert: every cell still completes (or is quarantined
after ``retries``), and the merged payloads equal a sequential run.

Nobody polls to learn that something happened: a ``lease`` request that
cannot be granted *long-polls* on one :class:`threading.Condition` (at
most half a heartbeat, so the waiting worker still counts as alive), the
sweep waits on the same condition, and every result, reclaim, expiry
and worker loss notifies it.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import pathlib
import random
import signal
import socket
import socketserver
import threading
import time
import typing as _t

from ..obs import MetricsRegistry
from .grid import CampaignGrid, canonical_json
from .lease import DONE, FAILED, LeaseTable
from .runner import CampaignReport
from .store import CellRecord, ResultStore

#: Protocol ops a worker may send.
WORKER_OPS: tuple[str, ...] = ("hello", "lease", "heartbeat", "result")

#: Seeds the ``chaos_kills`` victim choice, so a chaos run is repeatable.
_CHAOS_SEED = 1


class _ControlServer(socketserver.ThreadingTCPServer):
    """Threaded line-JSON control-plane server (one thread per worker)."""

    daemon_threads = True
    allow_reuse_address = True
    #: A spawned fleet connects all at once; a connection that overflows
    #: the listen backlog retries only after the 1 s SYN timeout.
    request_queue_size = 128
    coordinator: "CampaignCoordinator"
    _closing = False

    def start(self) -> None:
        """Accept connections on a daemon thread until :meth:`stop`."""
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self) -> None:
        # Blocks in accept() rather than serve_forever()'s timed select,
        # so stop() has no poll interval to wait out.
        while not self._closing:
            self.handle_request()

    def stop(self) -> None:
        """Stop accepting and release the listening socket."""
        self._closing = True
        with contextlib.suppress(OSError):  # wake the blocked accept()
            socket.create_connection(self.server_address, timeout=1.0).close()
        self._acceptor.join(1.0)
        self.server_close()


class _ControlHandler(socketserver.StreamRequestHandler):
    """Per-connection loop: read a JSON line, dispatch, write the reply."""

    def handle(self) -> None:
        """Serve one worker connection until EOF or socket error."""
        coordinator = self.server.coordinator  # type: ignore[attr-defined]
        worker: str | None = None
        try:
            for raw in self.rfile:
                try:
                    message = json.loads(raw)
                except json.JSONDecodeError as exc:
                    reply: dict[str, _t.Any] = {"op": "error",
                                                "error": f"bad json: {exc}"}
                else:
                    reply = coordinator.dispatch(message)
                    if reply["op"] != "error":
                        worker = message["worker"]
                self.wfile.write(
                    (canonical_json(reply) + "\n").encode("utf-8"))
                self.wfile.flush()
        except (ConnectionError, OSError):
            pass
        finally:
            if worker is not None:
                coordinator.connection_lost(worker)


class CampaignCoordinator:
    """Serve a :class:`CampaignGrid` to workers under lease discipline.

    *timeout_s*, *retries*, *resume*, *metrics* and *echo* are
    :func:`~repro.campaign.runner.run_campaign`'s (*echo* receives each
    progress line).  *spawn* local worker processes are forked and
    pointed at the server (0 = external workers only); *host*/*port*
    bind the control socket (port 0 picks a free one, read it back from
    the coordinator's ``port`` attribute after :meth:`run` binds);
    *heartbeat_s* is the worker heartbeat cadence and
    drives failure detection (a worker silent for ``3 x heartbeat_s``
    is declared dead); *steal_after_s* enables work stealing once a
    sole lease is that old (default ``4 x heartbeat_s``); *shard_dir*
    makes spawned workers keep per-worker JSONL shards there;
    *chaos_kills* SIGKILLs that many spawned workers mid-cell (the
    fault hook), respawning replacements; *wall_limit_s* bounds the
    whole campaign (remaining cells are quarantined at the limit).
    """

    def __init__(self, grid: CampaignGrid, store: ResultStore, *,
                 spawn: int = 0, host: str = "127.0.0.1", port: int = 0,
                 timeout_s: float | None = None, retries: int = 1,
                 resume: bool = False, heartbeat_s: float = 0.5,
                 steal_after_s: float | None = None,
                 shard_dir: str | pathlib.Path | None = None,
                 chaos_kills: int = 0, chaos_interval_s: float = 1.0,
                 wall_limit_s: float | None = None,
                 metrics: MetricsRegistry | None = None,
                 echo: _t.Callable[[str], None] | None = None) -> None:
        """Validate knobs and bind grid/store; nothing runs until :meth:`run`."""
        if spawn < 0:
            raise ValueError(f"spawn must be >= 0, got {spawn}")
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        self.grid = grid
        self.store = store
        self.spawn = spawn
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = retries
        self.resume = resume
        self.heartbeat_s = heartbeat_s
        self.liveness_s = 3.0 * heartbeat_s
        self.steal_after_s = (steal_after_s if steal_after_s is not None
                              else 4.0 * heartbeat_s)
        self.shard_dir = pathlib.Path(shard_dir) if shard_dir else None
        self.chaos_kills = chaos_kills
        self.chaos_interval_s = chaos_interval_s
        self.wall_limit_s = wall_limit_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.echo = echo
        self.table = LeaseTable(
            grid, lease_s=timeout_s, retries=retries,
            steal_after_s=self.steal_after_s)
        self._lock = threading.Lock()
        #: Notified when a cell may have become leasable or the table done.
        self._wake = threading.Condition(self._lock)
        self._mp = multiprocessing.get_context()
        self._spawned: dict[str, multiprocessing.Process] = {}
        self._next_worker = 0
        self._quarantined: dict[str, CellRecord] = {}
        self._ran = 0
        self._skipped = 0
        self._kills_done = 0
        self._started = 0.0

    # -- metrics -------------------------------------------------------------
    def _instrument(self) -> None:
        from ..obs.probes import attach_coordinator_probes

        m = self.metrics
        self._m_granted = m.counter("campaign.leases.granted",
                                    "leases handed to workers")
        self._m_expired = m.counter("campaign.leases.expired",
                                    "leases past their deadline")
        self._m_reclaimed = m.counter("campaign.leases.reclaimed",
                                      "cells requeued after a lost lease")
        self._m_stolen = m.counter("campaign.leases.stolen",
                                   "duplicate leases stolen from stragglers")
        self._m_worker_fail = m.counter("campaign.workers.failed",
                                        "workers declared dead")
        self._m_done = m.counter("campaign.cells.completed",
                                 "cells finished successfully")
        self._m_failed = m.counter("campaign.cells.quarantined",
                                   "cells abandoned after retries")
        self._m_retries = m.counter("campaign.cells.retries",
                                    "extra attempts after failure/timeout")
        self._m_skipped = m.counter("campaign.cells.skipped",
                                    "cells satisfied from the store (resume)")
        self._m_wall = m.histogram("campaign.cell_wall_s",
                                   "per-cell wall-clock seconds")
        attach_coordinator_probes(self, m)

    def _sync_counters(self) -> None:
        """Mirror the lease table's event totals into the obs counters."""
        c = self.table.counters
        for metric, value in ((self._m_granted, c.granted),
                              (self._m_expired, c.expired),
                              (self._m_reclaimed, c.reclaimed),
                              (self._m_retries, c.reclaimed),
                              (self._m_stolen, c.stolen),
                              (self._m_worker_fail, c.workers_failed)):
            delta = value - metric.value
            if delta > 0:
                metric.inc(delta)

    def _progress(self, text: str) -> None:
        if self.echo is not None:
            self.echo(text)

    # -- protocol ------------------------------------------------------------
    def dispatch(self, message: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
        """Handle one worker request; returns the JSON-able reply."""
        if not isinstance(message, dict):
            return {"op": "error", "error": "bad request (not an object)"}
        op = message.get("op")
        worker = message.get("worker")
        if op not in WORKER_OPS or not isinstance(worker, str):
            return {"op": "error",
                    "error": f"bad request (op={op!r}, worker={worker!r})"}
        now = time.monotonic()
        with self._lock:
            if op == "hello":
                self.table.register(worker, now)
                return {"op": "welcome", "name": self.grid.name,
                        "heartbeat_s": self.heartbeat_s}
            if op == "heartbeat":
                revoked = self.table.touch(worker, now)
                return {"op": "ack", "revoked": revoked}
            if op == "lease":
                return self._on_lease(worker, now)
            reply = self._on_result(worker, message, now)
            self._wake.notify_all()
            return reply

    def _on_lease(self, worker: str, now: float) -> dict[str, _t.Any]:
        if self.table.done:
            return {"op": "shutdown"}
        lease = self.table.grant(worker, now)
        if lease is None:
            # Long poll: hold the request until something changes, but
            # for at most half a heartbeat — the worker cannot heartbeat
            # while it waits, and its next ``lease`` refreshes liveness.
            self._wake.wait(self.heartbeat_s / 2.0)
            if self.table.done:
                return {"op": "shutdown"}
            lease = self.table.grant(worker, time.monotonic())
            if lease is None:
                return {"op": "wait"}
        if lease.stolen:
            self._progress(f"steal  {lease.key} -> {worker} "
                           f"(attempt {lease.attempt + 1})")
        return {"op": "cell", "key": lease.key,
                "spec": self.table.cells[lease.key].spec,
                "attempt": lease.attempt, "lease_s": self.timeout_s,
                "stolen": lease.stolen}

    def _on_result(self, worker: str, message: _t.Mapping[str, _t.Any],
                   now: float) -> dict[str, _t.Any]:
        key = message.get("key")
        if not isinstance(key, str) or key not in self.table.cells:
            return {"op": "error", "error": f"unknown cell key {key!r}"}
        ok = message.get("status") == "ok"
        payload = message.get("payload")
        try:
            wall = float(message.get("wall_s", 0.0))
            attempt = int(message.get("attempt", 0))
            if ok and not isinstance(payload, dict):
                raise TypeError("ok payload is not an object")
        except (TypeError, ValueError) as exc:
            return {"op": "error", "error": f"bad result for {key}: {exc}"}
        if ok:
            first = self.table.report_ok(worker, key, now)
            if first:
                self._append(key, "ok", payload, wall=wall,
                             attempts=attempt + 1, worker=worker)
                self._ran += 1
                self._m_done.inc()
                done = self._ran + self._skipped
                self._progress(
                    f"[{done}/{len(self.grid)}] ok     {key} "
                    f"from {worker} ({wall:.2f}s)")
            return {"op": "ack", "accepted": first}
        error = str(message.get("error", "worker reported failure"))
        fate = self.table.report_error(worker, key, now)
        if fate == "retry":
            self._progress(f"retrying {key} after {worker}: "
                           f"{error.splitlines()[0]}")
        elif fate == "failed":
            self._quarantine(key, error, wall=wall)
        return {"op": "ack", "accepted": False}

    def connection_lost(self, worker: str) -> None:
        """A worker's socket closed; reclaim its leases if it held any."""
        now = time.monotonic()
        with self._lock:
            state = self.table.workers.get(worker)
            if state is None or state.dead:
                return
            if not state.keys:       # graceful drain: nothing to reclaim
                state.dead = True
                return
            held = len(state.keys)
            quarantined = self.table.fail_worker(worker, now)
            self._progress(f"worker {worker} lost with {held} lease(s); "
                           f"reclaimed {held - len(quarantined)}")
            for key in quarantined:
                self._quarantine(key, f"worker {worker} died mid-cell")
            self._wake.notify_all()

    # -- store ---------------------------------------------------------------
    def _append(self, key: str, status: str,
                payload: dict[str, _t.Any] | None, *, wall: float,
                attempts: int, worker: str | None = None,
                error: str | None = None) -> CellRecord:
        meta: dict[str, _t.Any] = {"wall_s": round(wall, 4),
                                   "attempts": attempts,
                                   "grid": self.grid.name}
        if worker is not None:
            meta["worker"] = worker
        if error is not None:
            meta["error"] = error
        record = CellRecord(key=key, spec=self.table.cells[key].spec,
                            status=status, result=payload, meta=meta)
        self.store.append(record)
        self._m_wall.observe(wall)
        return record

    def _quarantine(self, key: str, error: str, *,
                    wall: float = 0.0) -> None:
        if key in self._quarantined:
            return
        attempts = max(1, self.table.cells[key].attempts)
        record = self._append(key, "failed", None, wall=wall,
                              attempts=attempts, error=error)
        self._quarantined[key] = record
        self._m_failed.inc()
        self._progress(f"FAILED {key}: {error.splitlines()[0]}")

    # -- worker fleet --------------------------------------------------------
    def _spawn_worker(self) -> str:
        from .worker import worker_entry

        worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        shard = None
        if self.shard_dir is not None:
            self.shard_dir.mkdir(parents=True, exist_ok=True)
            shard = str(self.shard_dir
                        / f"{self.store.path.stem}-{worker_id}.jsonl")
        # Workers must not be daemons: each one forks a child per cell,
        # and daemonic processes may not have children.  _reap_fleet()
        # kills any worker that outlives the campaign.
        process = self._mp.Process(
            target=worker_entry,
            args=(self.host, self.port, worker_id, shard), daemon=False)
        process.start()
        self._spawned[worker_id] = process
        return worker_id

    def _chaos_step(self, now: float) -> None:
        """SIGKILL one spawned worker that is mid-cell, if a kill is due."""
        if self._kills_done >= self.chaos_kills:
            return
        if now - self._started < self.chaos_interval_s * (self._kills_done + 1):
            return
        victims = sorted(
            w for w, p in self._spawned.items()
            if p.is_alive()
            and self.table.workers.get(w) is not None
            and self.table.workers[w].keys)
        if not victims:
            return  # nobody is mid-cell right now; try next sweep
        rng = random.Random(f"{_CHAOS_SEED}-{self._kills_done}")
        victim = rng.choice(victims)
        process = self._spawned[victim]
        if process.pid is None:
            return
        os.kill(process.pid, signal.SIGKILL)
        process.join()
        self._kills_done += 1
        self._progress(f"chaos: SIGKILLed worker {victim} "
                       f"(pid {process.pid})")
        self._spawn_worker()  # keep the fleet at strength

    def _sweep(self, now: float) -> bool:
        """One failure-detection pass, lock held: expire leases, fail
        silent workers, chaos, wall limit.  True once every cell is
        terminal."""
        expired = self.table.expire(now)
        for lease in expired:
            self._progress(f"lease expired: {lease.key} on {lease.worker}")
            attempts = self.table.cells[lease.key].attempts
            if self.table.cells[lease.key].status == FAILED:
                self._quarantine(
                    lease.key, f"lease expired after {attempts} attempt(s)")
        dead = self.table.dead_workers(now, self.liveness_s)
        for worker in dead:
            held = len(self.table.workers[worker].keys)
            quarantined = self.table.fail_worker(worker, now)
            self._progress(f"worker {worker} missed heartbeats; "
                           f"reclaimed {held} lease(s)")
            for key in quarantined:
                self._quarantine(key, f"worker {worker} stopped heartbeating")
        self._chaos_step(now)
        if (self.wall_limit_s is not None
                and now - self._started > self.wall_limit_s):
            for key, cell in self.table.cells.items():
                if cell.status not in (DONE, FAILED):
                    cell.status = FAILED
                    self._quarantine(key, "campaign wall limit reached")
        self._sync_counters()
        if expired or dead or self.table.done:
            self._wake.notify_all()
        return self.table.done

    def _reap_fleet(self, drain_s: float) -> None:
        """Join spawned workers; kill any that outlive the drain window."""
        deadline = time.monotonic() + drain_s
        while self._spawned:
            worker_id, process = self._spawned.popitem()
            process.join(max(0.0, deadline - time.monotonic()))
            lingering = process.is_alive()
            if lingering:
                process.kill()
                process.join()
            process.close()
            if lingering and drain_s:
                self._progress(f"killed lingering worker {worker_id}")

    # -- entry points --------------------------------------------------------
    def begin(self) -> None:
        """Attach the instruments and load (*resume*) or truncate the
        store: what :meth:`run` starts with, and what a caller driving
        :meth:`dispatch` itself (``run_campaign(workers=0)``) calls first."""
        self._instrument()
        self._started = time.monotonic()
        if self.resume:
            completed = self.store.completed_keys()
        else:
            self.store.clear()
            completed = set()
        self._skipped = self.table.mark_done(completed)
        self._m_skipped.inc(self._skipped)
        if self._skipped:
            self._progress(f"resume: {self._skipped} cell(s) already "
                           f"complete in {self.store.path}")

    def run(self) -> CampaignReport:
        """Serve the campaign to workers until every cell is terminal."""
        self.begin()
        server = _ControlServer((self.host, self.port), _ControlHandler)
        server.coordinator = self
        self.port = server.server_address[1]
        server.start()
        try:
            for _ in range(self.spawn):
                self._spawn_worker()
            sweep_s = min(0.05, self.heartbeat_s / 4.0)
            with self._lock:
                while not self._sweep(time.monotonic()):
                    self._wake.wait(sweep_s)
            self._reap_fleet(drain_s=max(1.0, 4.0 * self.heartbeat_s))
        finally:
            # An exception skipped the drain above: the workers are not
            # daemons, so kill them or they outlive the campaign.
            self._reap_fleet(drain_s=0.0)
            server.stop()
        return self.report()

    def report(self) -> CampaignReport:
        """What the campaign did so far (final once every cell is terminal)."""
        with self._lock:
            self._sync_counters()
        counters = self.table.counters
        return CampaignReport(
            grid=self.grid.name, total=len(self.grid), ran=self._ran,
            skipped=self._skipped, failed=len(self._quarantined),
            wall_s=time.monotonic() - self._started,
            quarantined=list(self._quarantined.values()),
            reclaimed=counters.reclaimed, stolen=counters.stolen)

    def summary(self) -> dict[str, _t.Any]:
        """JSON-able control-plane summary (the CI artifact payload)."""
        counters = self.table.counters
        return {
            "grid": self.grid.name,
            "cells": len(self.grid),
            "completed": self._ran + self._skipped,
            "quarantined": sorted(self._quarantined),
            "leases": {
                "granted": counters.granted,
                "expired": counters.expired,
                "reclaimed": counters.reclaimed,
                "stolen": counters.stolen,
                "duplicates": counters.duplicates,
            },
            "workers_failed": counters.workers_failed,
            "chaos_kills": self._kills_done,
        }
