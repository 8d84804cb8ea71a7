"""Parallel experiment campaigns: declarative grids leased out to workers.

The paper's evaluation is a grid of (scenario x seed) cells; this
package runs such grids concurrently without giving up determinism:

- :mod:`repro.campaign.grid` — :class:`CampaignCell` /
  :class:`CampaignGrid`, content-hash cell keys, TOML grid loading;
- :mod:`repro.campaign.cells` — :func:`execute_cell`, the per-kind cell
  executors (scenario, study, table1, churn, replication, scale_out,
  sleep);
- :mod:`repro.campaign.store` — the resumable append-only JSONL
  :class:`ResultStore`, plus :func:`merge_stores` /
  :func:`diff_stores` for multi-writer shard reconciliation;
- :mod:`repro.campaign.lease` — :class:`LeaseTable`, the pure
  lease/reclaim/steal state machine (deadline, retry, quarantine);
- :mod:`repro.campaign.coordinator` /
  :mod:`repro.campaign.worker` — the one executor: a TCP coordinator
  that leases cells to worker processes (local or on other hosts),
  detects failures via heartbeats and connection loss, reclaims and
  re-leases lost work, steals stragglers near campaign end, and owns
  resume, the store's records, the report and the ``campaign.*``
  instruments;
- :mod:`repro.campaign.runner` — :func:`run_campaign`, the one-call
  local front end (a coordinator plus N loopback workers, or the
  in-process sequential reference at ``workers=0``).

Builtin grids for the paper's sweeps live in
:mod:`repro.experiments.grids`; aggregation of a finished store into
tables lives in :mod:`repro.analysis.campaign`; the CLI front end is
``python -m repro campaign`` (``coordinate`` runs a grid; ``work`` /
``merge`` / ``diff`` attach workers and reconcile their shards).
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
from .store import CellRecord, ResultStore, diff_stores, merge_stores
from .worker import CampaignWorker, worker_entry

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
    "merge_stores",
    "run_campaign",
    "worker_entry",
]
