"""Reproduction of Table I: word-count makespan across cluster shapes.

Eight vanilla-BOINC rows plus the BOINC-MR row, exactly as the paper lists
them.  ``run_table1()`` executes every row and returns measured-vs-paper
records; ``render()`` prints the table in the paper's cell format
(``mean [slowest-node-discarded]``).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import format_cell, render_table
from ..core import CloudSpec, MapReduceJobSpec
from .scenario import ScenarioResult, run_scenario


@dataclasses.dataclass(frozen=True, slots=True)
class PaperCell:
    """A value from the paper: mean and optional discarded-straggler mean."""

    mean: float
    discarded: float | None = None

    def text(self) -> str:
        """Render as the paper does: ``mean [discarded]``."""
        if self.discarded is None:
            return f"{self.mean:.0f}"
        return f"{self.mean:.0f} [{self.discarded:.0f}]"


@dataclasses.dataclass(frozen=True, slots=True)
class Table1Row:
    """One published row: configuration + the paper's measurements."""

    nodes: int
    n_maps: int
    n_reducers: int
    mr: bool
    paper_map: PaperCell
    paper_reduce: PaperCell
    paper_total: PaperCell

    @property
    def label(self) -> str:
        """Stable row id, e.g. ``boinc-mr_20n_20m_5r``."""
        kind = "boinc-mr" if self.mr else "boinc"
        return f"{kind}_{self.nodes}n_{self.n_maps}m_{self.n_reducers}r"


#: Table I as printed in the paper (times in seconds; bracketed italics
#: are the slowest-node-discarded averages).
PAPER_TABLE1: tuple[Table1Row, ...] = (
    Table1Row(10, 10, 2, False, PaperCell(484), PaperCell(337), PaperCell(1121)),
    Table1Row(10, 20, 2, False, PaperCell(376), PaperCell(349), PaperCell(1133)),
    Table1Row(15, 15, 3, False, PaperCell(747, 396), PaperCell(604, 312),
              PaperCell(1529, 1011)),
    Table1Row(15, 30, 3, False, PaperCell(983, 364), PaperCell(322),
              PaperCell(1378, 758)),
    Table1Row(20, 20, 5, False, PaperCell(383), PaperCell(455, 341),
              PaperCell(1111, 997)),
    Table1Row(20, 40, 5, False, PaperCell(649, 360), PaperCell(700, 391),
              PaperCell(1681, 1083)),
    Table1Row(30, 30, 7, False, PaperCell(716, 373), PaperCell(345),
              PaperCell(1373, 1030)),
    Table1Row(30, 40, 5, False, PaperCell(368), PaperCell(399), PaperCell(1174)),
    Table1Row(20, 20, 5, True, PaperCell(612), PaperCell(318), PaperCell(1216)),
)


@dataclasses.dataclass(slots=True)
class Table1Record:
    """Paper vs measured for one row."""

    row: Table1Row
    result: ScenarioResult

    @property
    def measured_map(self) -> tuple[float, float]:
        """(mean, slowest-discarded mean) of the map phase."""
        s = self.result.metrics.map_stats
        return (s.mean, s.mean_discard_slowest)

    @property
    def measured_reduce(self) -> tuple[float, float]:
        """(mean, slowest-discarded mean) of the reduce phase."""
        s = self.result.metrics.reduce_stats
        return (s.mean, s.mean_discard_slowest)

    @property
    def measured_total(self) -> tuple[float, float]:
        """(total, slowest-discarded total) makespan."""
        m = self.result.metrics
        return (m.total, m.total_discard_slowest)


def scenario_for_row(row: Table1Row, seed: int = 1
                     ) -> tuple[CloudSpec, MapReduceJobSpec]:
    """The deployment and the job matching one Table I row."""
    return (CloudSpec(seed=seed, n_nodes=row.nodes, mr_clients=row.mr),
            MapReduceJobSpec(row.label, n_maps=row.n_maps,
                             n_reducers=row.n_reducers))


def run_table1(rows: _t.Sequence[Table1Row] = PAPER_TABLE1,
               seed: int = 1) -> list[Table1Record]:
    """Run every Table I row; returns paper-vs-measured records."""
    out = []
    for row in rows:
        result = run_scenario(*scenario_for_row(row, seed=seed))
        out.append(Table1Record(row=row, result=result))
    return out


def render(records: _t.Sequence[Table1Record]) -> str:
    """Print the reproduction side by side with the published values."""
    headers = ["Nodes", "#Map", "#Red", "Client",
               "Map (ours)", "Map (paper)",
               "Reduce (ours)", "Reduce (paper)",
               "Total (ours)", "Total (paper)"]
    rows = []
    for rec in records:
        r = rec.row
        rows.append([
            r.nodes, r.n_maps, r.n_reducers,
            "BOINC-MR" if r.mr else "BOINC",
            format_cell(*rec.measured_map), r.paper_map.text(),
            format_cell(*rec.measured_reduce), r.paper_reduce.text(),
            format_cell(*rec.measured_total), r.paper_total.text(),
        ])
    return render_table(headers, rows,
                        title="Table I — word count makespan (seconds)")
