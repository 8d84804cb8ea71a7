"""``run_campaign``: one call that runs a grid into a result store.

There is one executor.  Every cell is leased out by a
:class:`~repro.campaign.coordinator.CampaignCoordinator`, which owns the
deadline, retry and quarantine accounting, resume, the store's records,
the report and the progress lines;
:func:`run_campaign` only picks the transport.  ``workers >= 1`` spawns
that many :class:`~repro.campaign.worker.CampaignWorker` processes on
loopback, each running one forked child per cell, so a hung, crashed or
SIGKILLed worker costs a re-lease, not the campaign.  ``workers=0`` is
the sequential in-process reference: the same ``lease`` / ``result``
exchange as function calls around :func:`execute_cell` (no fork, no
socket, and so no timeout enforcement).

Determinism: a cell's payload is produced by
:func:`repro.campaign.cells.execute_cell` from the cell spec alone, so
the schedule (worker count, completion order, retries) affects only the
store's line *order*, never a cell's bytes — ``workers=0`` and
``workers=8`` write the same payload per key.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import time
import traceback
import typing as _t

from .cells import execute_cell
from .grid import CampaignCell, CampaignGrid
from .lease import LeaseCounters
from .store import CellRecord, ResultStore


def _describe(exc: BaseException) -> str:
    """The error text a failed attempt is recorded with (call in ``except``)."""
    return f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}"


def _child_main(spec: dict[str, _t.Any],
                conn: multiprocessing.connection.Connection) -> None:
    """Worker-process entry point: run one cell, ship the outcome back."""
    try:
        payload = execute_cell(spec)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 — becomes a quarantine record
        conn.send(("error", _describe(exc)))
    finally:
        conn.close()


def _shutdown_child(process: multiprocessing.Process,
                    conn: multiprocessing.connection.Connection,
                    grace_s: float = 5.0) -> None:
    """Fully reap one cell child: terminate if needed (escalating to
    SIGKILL after *grace_s*), join it, close its pipe, and release the
    process handle — so a timed-out/revoked cell leaves no zombie
    process and no leaked file descriptor behind."""
    if process.is_alive():
        process.terminate()
        process.join(grace_s)
        if process.is_alive():
            process.kill()
    process.join()
    conn.close()
    process.close()


@dataclasses.dataclass(slots=True)
class CampaignReport:
    """What one campaign run did."""

    grid: str
    total: int
    ran: int
    skipped: int
    failed: int
    wall_s: float
    #: The lease table's totals (granted, reclaimed, ...).
    leases: LeaseCounters
    #: Spawned workers SIGKILLed by the ``chaos_kills`` hook.
    chaos_kills: int
    quarantined: list[CellRecord] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no cell ended in quarantine."""
        return self.failed == 0

    def render(self) -> str:
        """One-paragraph human summary, quarantined cells listed."""
        lines = [f"campaign {self.grid!r}: {self.total} cells — "
                 f"{self.ran} ran, {self.skipped} skipped (resume), "
                 f"{self.failed} failed, wall {self.wall_s:.1f}s"]
        if self.leases.reclaimed:
            lines[0] += f" ({self.leases.reclaimed} lease(s) reclaimed)"
        for rec in self.quarantined:
            error = str(rec.meta.get("error", "")).splitlines()
            lines.append(f"  quarantined {rec.key} "
                         f"({CampaignCell.from_spec(rec.spec).label()}): "
                         f"{error[0] if error else 'unknown error'}")
        return "\n".join(lines)

    def record(self, seed: int) -> dict[str, _t.Any]:
        """The run record (:data:`repro.wire.RECORD_SCHEMAS`) of the
        campaign: cell counts, lease totals, worker failures, kills."""
        leases = self.leases
        outcome = {
            "cells": self.total, "ran": self.ran, "skipped": self.skipped,
            "completed": self.ran + self.skipped,
            "quarantined": sorted(rec.key for rec in self.quarantined),
            "leases": {"granted": leases.granted, "expired": leases.expired,
                       "reclaimed": leases.reclaimed,
                       "duplicates": leases.duplicates},
            "workers_failed": leases.workers_failed,
            "chaos_kills": self.chaos_kills}
        return {"command": "campaign", "seed": seed, "wall_s": self.wall_s,
                "ok": self.ok, "spec": {"grid": self.grid},
                "outcome": outcome, "audit": None, "faults": []}


#: Extra attempts :func:`run_campaign` gives a failing or timing-out cell.
RETRIES = 1


def run_campaign(grid: CampaignGrid, out: str, *, workers: int = 1,
                 timeout_s: float | None = None,
                 resume: bool = False) -> CampaignReport:
    """Run *grid* into the store at *out* on this host; returns the report.

    *workers* local worker processes run the cells (0 = every cell in
    this process, the sequential reference), *timeout_s* is the per-cell
    wall-clock budget (None = unbounded), and *resume* whether cells
    already ``ok`` in the store are skipped (False truncates the store
    first).  A failing or timing-out cell gets :data:`RETRIES` more
    attempts before quarantine.
    """
    from .coordinator import CampaignCoordinator

    coordinator = CampaignCoordinator(
        grid, ResultStore(out), spawn=workers, timeout_s=timeout_s,
        retries=RETRIES, resume=resume)
    if workers:
        return coordinator.run()
    coordinator.begin()
    while True:
        grant = coordinator.dispatch({"op": "lease", "worker": "inline"})
        if grant["op"] != "cell":
            break
        result = {"op": "result", "worker": "inline", "key": grant["key"],
                  "attempt": grant["attempt"]}
        t0 = time.monotonic()
        try:
            result.update(status="ok", payload=execute_cell(grant["spec"]))
        except Exception as exc:  # noqa: BLE001 — becomes a retry/quarantine
            result.update(status="error", error=_describe(exc))
        result["wall_s"] = time.monotonic() - t0
        coordinator.dispatch(result)
    return coordinator.report()
