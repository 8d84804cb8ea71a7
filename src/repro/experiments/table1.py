"""Reproduction of Table I: word-count makespan across cluster shapes.

Eight vanilla-BOINC rows plus the BOINC-MR row, exactly as the paper lists
them.  ``table1_payload()`` runs one row (one variant of the study);
:data:`STUDY` declares the table in the paper's cell format
(``mean [slowest-node-discarded]``) and the relational claims the
reproduction targets.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from ..analysis import format_cell
from ..core import CloudSpec, MapReduceJobSpec
from .scenario import run_deployment
from .study import Claim, Payloads, Study


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


def scenario_for_row(row: Table1Row, seed: int = 1
                     ) -> tuple[CloudSpec, MapReduceJobSpec]:
    """The deployment and the job matching one Table I row."""
    return (CloudSpec(seed=seed, n_nodes=row.nodes, mr_clients=row.mr),
            MapReduceJobSpec(row.label, n_maps=row.n_maps,
                             n_reducers=row.n_reducers))


def table1_payload(row: int, seed: int) -> dict[str, _t.Any]:
    """Run Table I row number *row*; measured cells plus the paper's means."""
    published = PAPER_TABLE1[row]
    payload = run_deployment(*scenario_for_row(published, seed=seed))
    payload["paper_total"] = published.paper_total.mean
    payload["paper_map"] = published.paper_map.mean
    payload["paper_reduce"] = published.paper_reduce.mean
    return payload


_ROWS = {row.label: row for row in PAPER_TABLE1}
_MR = "boinc-mr_20n_20m_5r"
_VANILLA = "boinc_20n_20m_5r"


def _discard_never_exceeds(p: Payloads) -> bool:
    return all(row[f"{cell}_discard_slowest"] <= row[mean] + 1e-9
               for row in p.values()
               for cell, mean in (("map", "map_mean"),
                                  ("reduce", "reduce_mean"),
                                  ("total", "total")))


STUDY = Study(
    name="table1", seed=1,
    variants={row.label: functools.partial(table1_payload, i)
              for i, row in enumerate(PAPER_TABLE1)},
    columns=(
        ("Nodes", lambda r: str(_ROWS[r["variant"]].nodes)),
        ("#Map", lambda r: str(_ROWS[r["variant"]].n_maps)),
        ("#Red", lambda r: str(_ROWS[r["variant"]].n_reducers)),
        ("Client", lambda r: "BOINC-MR" if _ROWS[r["variant"]].mr
         else "BOINC"),
        ("Map (ours)",
         lambda r: format_cell(r["map_mean"], r["map_discard_slowest"])),
        ("Map (paper)", lambda r: _ROWS[r["variant"]].paper_map.text()),
        ("Reduce (ours)",
         lambda r: format_cell(r["reduce_mean"], r["reduce_discard_slowest"])),
        ("Reduce (paper)", lambda r: _ROWS[r["variant"]].paper_reduce.text()),
        ("Total (ours)",
         lambda r: format_cell(r["total"], r["total_discard_slowest"])),
        ("Total (paper)", lambda r: _ROWS[r["variant"]].paper_total.text()),
    ),
    claims=(
        Claim("Totals land in the paper's band (600-2600 s for the 1 GB "
              "job; the paper's are 1111-1681 s).",
              lambda p: all(600 < row["total"] < 2600 for row in p.values())),
        Claim("Per-phase means are in the published few-hundred-second "
              "range (100-1100 s).",
              lambda p: all(100 < row[mean] < 1100 for row in p.values()
                            for mean in ("map_mean", "reduce_mean"))),
        Claim("Discarding the slowest node never increases a phase mean or "
              "a total: it is how the paper explains its bracketed values.",
              _discard_never_exceeds),
        Claim("The BOINC-MR row has a faster reduce phase than vanilla "
              "BOINC on the same 20/20/5 geometry (paper: 318 s vs 455 s): "
              "inter-client transfers bypass the server uplink.",
              lambda p: p[_MR]["reduce_mean"] < p[_VANILLA]["reduce_mean"]),
        Claim("BOINC-MR's total stays comparable, within 0.6-1.25x of "
              "vanilla (the paper's ratio is 1.09): \"it can provide the "
              "same level of performance\".",
              lambda p: 0.6 < p[_MR]["total"] / p[_VANILLA]["total"] < 1.25),
        Claim("Map work (mean x tasks) outweighs reduce work in every row: "
              "\"the map step took too much of a share of the whole job\".",
              lambda p: all(
                  row["map_mean"] * _ROWS[label].n_maps
                  > row["reduce_mean"] * _ROWS[label].n_reducers
                  for label, row in p.items())),
    ),
)
