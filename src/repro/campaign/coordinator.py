"""The campaign coordinator: lease cells to worker processes over TCP.

:class:`CampaignCoordinator` is the server half of the distributed
campaign control plane.  It speaks a line-JSON protocol (the table
:data:`CONTROL_OPS`, one canonical-JSON object per line, lockstep per
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
import dataclasses
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

from ..wire import MAX_MESSAGE_BYTES, compile_checks, dumps, loads
from .grid import CampaignGrid
from .lease import DONE, FAILED, LeaseTable
from .runner import CampaignReport
from .store import CellRecord, ResultStore

_OP = {"op": (("str",), True)}
_REQUEST = {**_OP, "worker": (("str",), True)}

#: Every control-plane message, in :mod:`repro.wire`'s schema format.
#: ``op`` names the message; a request also names its ``worker``.
CONTROL_SCHEMAS: dict[str, dict[str, tuple[tuple[str, ...], bool]]] = {
    "Hello": _REQUEST,
    "Lease": _REQUEST,
    "Heartbeat": _REQUEST,
    "Result": {**_REQUEST, "key": (("str",), True),
               "status": (("str",), True),
               "payload": (("dict", "null"), False),
               "error": (("str", "null"), False),
               "wall_s": (("number",), False),
               "attempt": (("int",), False)},
    "Welcome": {**_OP, "heartbeat_s": (("number",), True)},
    "Cell": {**_OP, "key": (("str",), True), "spec": (("dict",), True),
             "attempt": (("int",), True),
             "lease_s": (("number", "null"), True)},
    "Wait": _OP,
    "Shutdown": _OP,
    "Revoked": {**_OP, "revoked": (("list[str]",), True)},
    "Ack": {**_OP, "accepted": (("bool",), True)},
    "ControlError": {**_OP, "error": (("str",), True)},
}

#: Op a worker may send -> (its request schema, the schemas of its
#: replies).  Any request may be answered ``ControlError`` instead.
CONTROL_OPS: dict[str, tuple[str, tuple[str, ...]]] = {
    "hello": ("Hello", ("Welcome",)),
    "lease": ("Lease", ("Cell", "Wait", "Shutdown")),
    "heartbeat": ("Heartbeat", ("Revoked",)),
    "result": ("Result", ("Ack",)),
}

_CHECKS = compile_checks(CONTROL_SCHEMAS)

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
        reply: dict[str, _t.Any]
        try:
            while raw := self.rfile.readline(MAX_MESSAGE_BYTES + 1):
                if len(raw) > MAX_MESSAGE_BYTES:
                    # No end in sight: answer once and hang up rather than
                    # buffer the rest of the line.
                    reply = {"op": "error",
                             "error": f"line over {MAX_MESSAGE_BYTES} bytes"}
                    self.wfile.write(dumps(reply) + b"\n")
                    return
                try:
                    message = loads(raw)
                except ValueError as exc:
                    reply = {"op": "error", "error": f"bad json: {exc}"}
                else:
                    reply = coordinator.dispatch(message)
                    if reply["op"] != "error":
                        worker = message["worker"]
                self.wfile.write(dumps(reply) + b"\n")
                self.wfile.flush()
        except (ConnectionError, OSError):
            pass
        finally:
            if worker is not None:
                coordinator.connection_lost(worker)


class CampaignCoordinator:
    """Serve a :class:`CampaignGrid` to workers under lease discipline.

    *timeout_s*, *retries*, *resume* and *echo* are
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

    def _progress(self, text: str) -> None:
        if self.echo is not None:
            self.echo(text)

    # -- protocol ------------------------------------------------------------
    def dispatch(self, message: _t.Any) -> dict[str, _t.Any]:
        """Handle one worker request; returns the JSON-able reply.

        The request is checked against its op's schema in
        :data:`CONTROL_OPS`, then its fields are the keyword arguments
        of the op's ``_on_<op>`` handler, which runs under the lock."""
        op = message.get("op") if isinstance(message, dict) else None
        if isinstance(op, str) and op in CONTROL_OPS:
            schema = CONTROL_OPS[op][0]
            problems = _CHECKS[schema](message, schema)
        else:
            problems = [f"op must be one of {sorted(CONTROL_OPS)}"]
        if problems:
            return {"op": "error", "error": "bad request: "
                                            + "; ".join(problems)}
        now = time.monotonic()
        with self._lock:
            return getattr(self, f"_on_{op}")(now, **message)

    def _on_hello(self, now: float, worker: str, **_: _t.Any) -> dict:
        self.table.register(worker, now)
        return {"op": "welcome", "heartbeat_s": self.heartbeat_s}

    def _on_heartbeat(self, now: float, worker: str, **_: _t.Any) -> dict:
        return {"op": "ack", "revoked": self.table.touch(worker, now)}

    def _on_lease(self, now: float, worker: str, **_: _t.Any) -> dict:
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
                "attempt": lease.attempt, "lease_s": self.timeout_s}

    def _on_result(self, now: float, worker: str, key: str, status: str,
                   payload: dict[str, _t.Any] | None = None,
                   error: str | None = None, wall_s: float = 0.0,
                   attempt: int = 0, **_: _t.Any) -> dict:
        self._wake.notify_all()
        if key not in self.table.cells:
            return {"op": "error", "error": f"unknown cell key {key!r}"}
        if not self.table.ever_held(worker, key):
            # Only a holder's result counts; a former holder's late one
            # still completes a cell that is not done yet.
            return {"op": "error", "error": f"{worker} never held a lease "
                    f"on {key}"}
        if not 0 <= wall_s <= now - self._started:
            return {"op": "error", "error": f"bad result for {key}: wall_s "
                    "is negative or longer than the campaign has run"}
        if status == "ok":
            if payload is None:
                return {"op": "error",
                        "error": f"bad result for {key}: ok without payload"}
            first = self.table.cells[key].status not in (DONE, FAILED)
            if first:  # stored before report_ok marks the cell done, so
                try:   # a payload too deep to encode is refused, not lost
                    self._append(key, "ok", payload, wall=wall_s,
                                 attempts=attempt + 1, worker=worker)
                except RecursionError:
                    return {"op": "error", "error": f"bad result for {key}:"
                            " payload nested too deep to store"}
                self._ran += 1
                done = self._ran + self._skipped
                self._progress(
                    f"[{done}/{len(self.grid)}] ok     {key} "
                    f"from {worker} ({wall_s:.2f}s)")
            self.table.report_ok(worker, key, now)
            return {"op": "ack", "accepted": first}
        error = error or "worker reported failure"
        fate = self.table.report_error(worker, key, now)
        if fate == "retry":
            self._progress(f"retrying {key} after {worker}: "
                           f"{error.splitlines()[0]}")
        elif fate == "failed":
            self._quarantine(key, error, wall=wall_s)
        return {"op": "ack", "accepted": False}

    def connection_lost(self, worker: str) -> None:
        """A worker's socket closed; reclaim its leases if it held any."""
        with self._lock:
            state = self.table.workers.get(worker)
            if state is None or state.dead:
                return
            if not state.keys:       # graceful drain: nothing to reclaim
                state.dead = True
                return
            held = len(state.keys)
            quarantined = self.table.fail_worker(worker)
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
        return record

    def _quarantine(self, key: str, error: str, *,
                    wall: float = 0.0) -> None:
        if key in self._quarantined:
            return
        attempts = max(1, self.table.cells[key].attempts)
        record = self._append(key, "failed", None, wall=wall,
                              attempts=attempts, error=error)
        self._quarantined[key] = record
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
        # The victim is known dead: reclaim its leases now.  Left to its
        # socket's EOF, a result it sent just before the kill could drain
        # the lease first, and the kill would not count as a failure.
        held = len(self.table.workers[victim].keys)
        quarantined = self.table.fail_worker(victim)
        self._progress(f"chaos: SIGKILLed worker {victim} "
                       f"(pid {process.pid}); reclaimed "
                       f"{held - len(quarantined)} lease(s)")
        for key in quarantined:
            self._quarantine(key, f"worker {victim} SIGKILLed mid-cell")
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
            quarantined = self.table.fail_worker(worker)
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
        """Load (*resume*) or truncate the store: what :meth:`run` starts
        with, and what a caller driving :meth:`dispatch` itself
        (``run_campaign(workers=0)``) calls first."""
        self._started = time.monotonic()
        if self.resume:
            completed = self.store.completed_keys()
        else:
            self.store.clear()
            completed = set()
        self._skipped = self.table.mark_done(completed)
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
        return CampaignReport(
            grid=self.grid.name, total=len(self.grid), ran=self._ran,
            skipped=self._skipped, failed=len(self._quarantined),
            wall_s=time.monotonic() - self._started,
            leases=dataclasses.replace(self.table.counters),
            chaos_kills=self._kills_done,
            quarantined=list(self._quarantined.values()))
