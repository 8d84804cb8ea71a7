"""Aggregation of campaign result stores into the paper's tables.

A finished campaign is a pile of per-cell JSONL records
(:class:`repro.campaign.ResultStore`); this module folds them back into
the shapes the sequential studies print: group cells by their
aggregation bucket (a Table I row label, a replication point, ...),
summarise the headline metric across seeds with the existing
:func:`repro.analysis.summarise` statistics, and render with the shared
:func:`repro.analysis.render_table` formatter.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from .stats import Summary, summarise
from .tables import render_table

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..campaign import CellRecord


@dataclasses.dataclass(frozen=True, slots=True)
class GroupStats:
    """Cross-seed aggregate of one campaign group (e.g. a Table I row)."""

    group: str
    kind: str
    #: Summary of the kind's headline metric over the completed cells;
    #: ``None`` when no cell of the group carries it (all failed, or the
    #: payloads lack the field), so the group is still listed.
    summary: Summary | None
    #: Mean of every numeric payload field across the group's cells.
    field_means: dict[str, float]
    failed: int
    #: Mean wall-clock seconds per cell (from the runner's meta
    #: side-channel; 0.0 when the store predates wall recording).
    wall_mean: float = 0.0
    #: Aggregate simulator throughput: summed payload ``events`` over
    #: summed wall seconds (0.0 when either is unavailable).
    events_per_s: float = 0.0
    #: Paper-reported counterpart of the headline metric, when the
    #: cells carry one (a ``paper_<metric>`` payload field — the
    #: Table I rows do); ``None`` otherwise.
    paper_mean: float | None = None

    @property
    def n(self) -> int:
        """Number of completed cells aggregated into this group."""
        return self.summary.n if self.summary else 0

    @property
    def stddev(self) -> float:
        """Cross-seed sample standard deviation of the headline metric."""
        return self.summary.stddev if self.summary else 0.0

    @property
    def ci95(self) -> float:
        """Half-width of the normal-approximation 95% confidence band
        around the cross-seed mean (0.0 when n < 2)."""
        if self.n < 2:
            return 0.0
        return 1.96 * self.summary.stddev / math.sqrt(self.summary.n)

    @property
    def paper_delta(self) -> float | None:
        """Fractional deviation of the simulated mean from the paper's
        reported value (``None`` when the paper reported nothing)."""
        if not self.summary or not self.paper_mean:
            return None
        return self.summary.mean / self.paper_mean - 1.0


def _numeric_means(payloads: _t.Sequence[_t.Mapping[str, _t.Any]]
                   ) -> dict[str, float]:
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for payload in payloads:
        for field, value in payload.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            sums[field] = sums.get(field, 0.0) + float(value)
            counts[field] = counts.get(field, 0) + 1
    return {f: sums[f] / counts[f] for f in sums}


def aggregate_records(records: _t.Iterable["CellRecord"]
                      ) -> list[GroupStats]:
    """Fold store records into per-group statistics (store order kept)."""
    from ..campaign.cells import KINDS

    groups: dict[str, list["CellRecord"]] = {}
    for record in records:
        group = record.spec.get("group") or record.spec["kind"]
        groups.setdefault(group, []).append(record)
    out: list[GroupStats] = []
    for group, members in groups.items():
        ok = [m for m in members if m.ok and m.result is not None]
        failed = len(members) - len(ok)
        kind = members[0].spec["kind"]
        _executor, metric = KINDS[kind]
        values = [float(m.result[metric]) for m in ok
                  if metric in m.result]
        walls = [float(m.meta["wall_s"]) for m in ok if "wall_s" in m.meta]
        events = [float(m.result["events"]) for m in ok
                  if "wall_s" in m.meta and "events" in m.result]
        wall_sum = sum(walls)
        papers = [float(m.result[f"paper_{metric}"]) for m in ok
                  if f"paper_{metric}" in m.result]
        out.append(GroupStats(
            group=group, kind=kind,
            summary=summarise(values) if values else None,
            field_means=_numeric_means([m.result for m in ok]),
            failed=failed,
            wall_mean=wall_sum / len(walls) if walls else 0.0,
            events_per_s=sum(events) / wall_sum
            if events and wall_sum > 0 else 0.0,
            paper_mean=sum(papers) / len(papers) if papers else None))
    return out


def aggregate_store(path: str) -> list[GroupStats]:
    """Load a campaign store from *path* and aggregate it."""
    from ..campaign import ResultStore

    return aggregate_records(ResultStore(path).load().values())


def render_campaign_table(stats: _t.Sequence[GroupStats],
                          title: str = "campaign summary") -> str:
    """Aggregates as a monospace table (one row per group)."""
    if not stats:
        return "(no completed cells)"
    headers = ["group", "kind", "n", "mean", "sd", "ci95", "p50", "p90",
               "min", "max", "paper", "delta", "wall", "ev/s", "failed"]
    rows = []
    for s in stats:
        headline = ([f"{v:.1f}" for v in (
            s.summary.mean, s.summary.p50, s.summary.p90,
            s.summary.minimum, s.summary.maximum)]
            if s.summary else ["-"] * 5)
        rows.append([
            s.group, s.kind, s.n,
            headline[0],
            f"{s.stddev:.1f}" if s.n > 1 else "-",
            f"+/-{s.ci95:.1f}" if s.n > 1 else "-",
            *headline[1:],
            f"{s.paper_mean:.1f}" if s.paper_mean is not None else "-",
            f"{s.paper_delta * 100:+.1f}%"
            if s.paper_delta is not None else "-",
            f"{s.wall_mean:.2f}s" if s.wall_mean > 0 else "-",
            f"{s.events_per_s:,.0f}" if s.events_per_s > 0 else "-",
            s.failed,
        ])
    return render_table(headers, rows, title=title)
