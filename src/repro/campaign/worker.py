"""The campaign worker: pull leased cells from a coordinator and run them.

:class:`CampaignWorker` is the client half of the distributed campaign
control plane — the analogue of a BOINC client.  It is strictly
pull-based: it connects to a
:class:`repro.campaign.coordinator.CampaignCoordinator`, requests a
lease, runs the cell in a forked child process (so a crashing or
hanging cell cannot take the worker down), heartbeats while the child
runs, and ships the outcome back.  Three coordinator signals shape the
loop: ``wait`` (nothing became leasable while the coordinator held the
request — re-ask at once; the waiting happens on its side),
``shutdown`` (campaign complete — drain and exit), and a ``revoked``
key in a heartbeat reply (another worker finished the cell first, or
the lease was reclaimed — kill the child and move on).

Results are optionally appended to a per-worker JSONL *shard*
(:class:`~repro.campaign.store.ResultStore`) before being reported, so
a worker killed between computing and reporting still leaves its
result on disk for :func:`repro.campaign.store.merge_stores`.
"""

from __future__ import annotations

import json
import os
import socket
import time
import typing as _t

from .grid import canonical_json
from .runner import _child_main, _describe, _shutdown_child
from .store import CellRecord, ResultStore

#: How long the worker waits on the child pipe between bookkeeping
#: passes (heartbeats, deadline, revocation checks), seconds.
_POLL_S = 0.05


class CampaignWorker:
    """Run leased campaign cells against a coordinator at *host*:*port*.

    *worker_id* defaults to ``<hostname>-<pid>``; *shard*, when given,
    is a per-worker :class:`~repro.campaign.store.ResultStore` that
    receives every outcome this worker computes (the multi-writer merge
    input).  *max_cells* bounds how many cells the worker will run
    (None = until the coordinator says shutdown), which tests use to
    exercise partial progress.
    """

    def __init__(self, host: str, port: int, *,
                 worker_id: str | None = None,
                 shard: ResultStore | None = None,
                 max_cells: int | None = None) -> None:
        """Record the coordinator address; nothing connects until :meth:`run`."""
        self.host = host
        self.port = port
        self.worker_id = (worker_id if worker_id is not None
                          else f"{socket.gethostname()}-{os.getpid()}")
        self.shard = shard
        self.max_cells = max_cells
        self.completed = 0
        self._sock: socket.socket | None = None
        self._rfile: _t.Any = None
        self._wfile: _t.Any = None
        self._heartbeat_s = 0.5

    # -- protocol ------------------------------------------------------------
    def _rpc(self, message: dict[str, _t.Any]) -> dict[str, _t.Any]:
        """One lockstep request/response exchange with the coordinator."""
        message["worker"] = self.worker_id
        self._wfile.write((canonical_json(message) + "\n").encode("utf-8"))
        self._wfile.flush()
        raw = self._rfile.readline()
        if not raw:
            raise ConnectionError("coordinator closed the connection")
        reply = json.loads(raw)
        if reply.get("op") == "error":
            raise ValueError(f"coordinator rejected request: "
                             f"{reply.get('error')}")
        return reply

    def _connect(self) -> None:
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=30.0)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        welcome = self._rpc({"op": "hello"})
        self._heartbeat_s = float(welcome.get("heartbeat_s", 0.5))

    def _close(self) -> None:
        for closable in (self._rfile, self._wfile, self._sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:  # pragma: no cover - best-effort teardown
                    pass
        self._sock = self._rfile = self._wfile = None

    # -- cell execution ------------------------------------------------------
    def _run_cell(self, grant: dict[str, _t.Any]) -> None:
        """Run one leased cell in a child, heartbeating until it ends."""
        import multiprocessing

        mp = multiprocessing.get_context()
        parent, child = mp.Pipe(duplex=False)
        process = mp.Process(target=_child_main,
                             args=(dict(grant["spec"]), child), daemon=True)
        process.start()
        child.close()
        key = grant["key"]
        started = time.monotonic()
        lease_s = grant.get("lease_s")
        deadline = started + lease_s if lease_s else None
        next_heartbeat = started + self._heartbeat_s
        outcome: tuple[str, _t.Any] | None = None
        try:
            while outcome is None:
                if parent.poll(_POLL_S):
                    try:
                        outcome = parent.recv()
                    except EOFError:
                        outcome = ("error", "cell child closed the pipe "
                                            "without a result")
                elif not process.is_alive():
                    outcome = ("error", f"cell child died "
                                        f"(exitcode {process.exitcode})")
                now = time.monotonic()
                if (outcome is None and deadline is not None
                        and now >= deadline):
                    outcome = ("timeout",
                               f"cell exceeded {lease_s:g}s lease budget")
                if outcome is None and now >= next_heartbeat:
                    next_heartbeat = now + self._heartbeat_s
                    reply = self._rpc({"op": "heartbeat", "keys": [key]})
                    if key in reply.get("revoked", ()):
                        return  # someone else owns the cell now; no report
        finally:
            _shutdown_child(process, parent)
        wall = time.monotonic() - started
        status, detail = outcome
        result: dict[str, _t.Any] = {
            "op": "result", "key": key, "attempt": grant.get("attempt", 0),
            "wall_s": round(wall, 4),
        }
        if status == "ok":
            result.update(status="ok", payload=detail, error=None)
        else:
            result.update(status="error", payload=None, error=str(detail))
        self._shard_append(grant, status, detail, wall)
        self._rpc(result)
        if status == "ok":
            self.completed += 1

    def _shard_append(self, grant: dict[str, _t.Any], status: str,
                      detail: _t.Any, wall: float) -> None:
        if self.shard is None:
            return
        ok = status == "ok"
        self.shard.append(CellRecord(
            key=grant["key"], spec=dict(grant["spec"]),
            status="ok" if ok else "failed",
            result=detail if ok else None,
            meta={"wall_s": round(wall, 4),
                  "attempts": int(grant.get("attempt", 0)) + 1,
                  "worker": self.worker_id,
                  **({} if ok else {"error": str(detail)})}))

    # -- entry point ---------------------------------------------------------
    def run(self) -> int:
        """Serve leases until the coordinator shuts the campaign down.

        Returns the number of cells this worker completed successfully.
        """
        self._connect()
        try:
            while (self.max_cells is None
                   or self.completed < self.max_cells):
                reply = self._rpc({"op": "lease"})
                op = reply.get("op")
                if op == "shutdown":
                    break
                if op == "wait":
                    continue
                if op != "cell":
                    raise ValueError(f"unexpected coordinator reply {op!r}")
                try:
                    self._run_cell(reply)
                except (ConnectionError, json.JSONDecodeError):
                    raise
                except Exception as exc:  # noqa: BLE001 — report, keep serving
                    self._rpc({"op": "result", "key": reply["key"],
                               "attempt": reply.get("attempt", 0),
                               "wall_s": 0.0, "status": "error",
                               "payload": None,
                               "error": "worker-side failure: "
                                        + _describe(exc)})
        except (ConnectionError, OSError, json.JSONDecodeError):
            pass  # coordinator gone; our leases will be reclaimed
        finally:
            self._close()
        return self.completed


def worker_entry(host: str, port: int, worker_id: str,
                 shard_path: str | None = None) -> int:
    """Process entry point for spawned workers (coordinator ``spawn=N``)."""
    shard = ResultStore(shard_path) if shard_path else None
    return CampaignWorker(host, port, worker_id=worker_id,
                          shard=shard).run()
