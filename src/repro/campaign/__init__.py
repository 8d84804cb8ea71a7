"""Parallel experiment campaigns: declarative grids leased out to workers.

The paper's evaluation is a grid of (scenario x seed) cells; this
package runs such grids concurrently without giving up determinism:

- :mod:`repro.campaign.grid` — :class:`CampaignCell` /
  :class:`CampaignGrid`, content-hash cell keys, TOML grid loading;
- :mod:`repro.campaign.cells` — :func:`execute_cell`, the per-kind cell
  executors (scenario, study, sleep);
- :mod:`repro.campaign.store` — the resumable append-only JSONL
  :class:`ResultStore`, written by the coordinator alone, and
  :func:`diff_stores`, which compares two finished stores;
- :mod:`repro.campaign.lease` — :class:`LeaseTable`, the pure
  lease/reclaim state machine (deadline, retry, quarantine);
- :mod:`repro.campaign.coordinator` /
  :mod:`repro.campaign.worker` — the one executor: a TCP coordinator
  that leases cells to worker processes (local or on other hosts),
  detects failures via heartbeats and connection loss, reclaims and
  re-leases lost work, and owns resume, the store's records and the
  report;
- :mod:`repro.campaign.runner` — :func:`run_campaign`, the one-call
  local front end (a coordinator plus N loopback workers, or the
  in-process sequential reference at ``workers=0``).

Builtin grids — ``paper`` and each study at some seeds — live in
:mod:`repro.experiments.grids`; aggregation of a finished store into
tables lives in :mod:`repro.analysis.campaign`; the CLI front end is
``python -m repro campaign`` (``coordinate`` runs a grid; ``work``
attaches a worker to it; ``diff`` compares two stores).
"""

from .cells import execute_cell
from .coordinator import CampaignCoordinator
from .grid import (
    CELL_KINDS,
    CampaignCell,
    CampaignGrid,
    canonical_json,
    cell_key,
    grid_from_toml,
)
from .lease import Lease, LeaseCounters, LeaseTable
from .runner import CampaignReport, run_campaign
from .store import CellRecord, ResultStore, diff_stores
from .worker import CampaignWorker

__all__ = [
    "CELL_KINDS",
    "CampaignCell",
    "CampaignCoordinator",
    "CampaignGrid",
    "CampaignReport",
    "CampaignWorker",
    "CellRecord",
    "Lease",
    "LeaseCounters",
    "LeaseTable",
    "ResultStore",
    "canonical_json",
    "cell_key",
    "diff_stores",
    "execute_cell",
    "grid_from_toml",
    "run_campaign",
]
