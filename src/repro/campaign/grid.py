"""Declarative campaign grids: cells, content-hash keys, TOML loading.

A campaign is a grid of independent simulation *cells* — one
(configuration x seed x fault-plan) point of an evaluation sweep, the
unit the paper's Table I / churn / replication grids are made of.  Cells
are plain JSON-able data, so they can be hashed (:func:`cell_key`),
shipped to a worker process, and persisted next to their results; a
cell's identity is the content hash of its spec, which is what makes
campaign stores resumable (:mod:`repro.campaign.store`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import tomllib
import typing as _t

from .cells import KINDS

#: Cell kinds understood by :func:`repro.campaign.cells.execute_cell`.
CELL_KINDS: tuple[str, ...] = tuple(KINDS)


@dataclasses.dataclass(frozen=True, slots=True)
class CampaignCell:
    """One grid point: a cell kind, its parameters, a seed, and faults.

    ``params`` must be JSON-able (the spec travels to worker processes
    and into the on-disk store); ``faults`` names a builtin chaos plan
    or a TOML plan path, applied to kinds that run a full deployment
    (``scenario`` / ``table1``).  ``group`` labels the aggregation bucket
    the cell's result belongs to (e.g. a Table I row label), so
    :mod:`repro.analysis.campaign` can fold seeds together.
    """

    kind: str
    seed: int
    params: _t.Mapping[str, _t.Any] = dataclasses.field(default_factory=dict)
    faults: str | None = None
    group: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown cell kind {self.kind!r}; expected one of "
                f"{CELL_KINDS}")
        if self.seed < 0:
            raise ValueError(f"cell seed must be >= 0, got {self.seed}")

    def spec(self) -> dict[str, _t.Any]:
        """The cell as a JSON-able dict (the worker/store wire format)."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "params": dict(self.params),
            "faults": self.faults,
            "group": self.group or f"{self.kind}",
        }

    @classmethod
    def from_spec(cls, spec: _t.Mapping[str, _t.Any]) -> "CampaignCell":
        """Rebuild a cell from :meth:`spec` output (inverse operation)."""
        return cls(kind=spec["kind"], seed=spec["seed"],
                   params=dict(spec.get("params", {})),
                   faults=spec.get("faults"),
                   group=spec.get("group", ""))

    @property
    def key(self) -> str:
        """Content-hash identity of this cell (see :func:`cell_key`)."""
        return cell_key(self)

    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        return f"{self.group or self.kind} seed={self.seed}" + (
            f" faults={self.faults}" if self.faults else "")


def canonical_json(value: _t.Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace drift.

    The byte-identity contract of the campaign layer rests on this:
    the same payload always encodes to the same bytes, independent of
    dict insertion order or the process that produced it.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def cell_key(cell: "CampaignCell | _t.Mapping[str, _t.Any]") -> str:
    """Content hash of a cell spec (the store/resume key).

    Two cells with the same kind, params, seed, and fault plan collapse
    to the same key regardless of construction order, so a resumed
    campaign recognises completed work even if the grid was rebuilt.
    """
    spec = cell.spec() if isinstance(cell, CampaignCell) else dict(cell)
    payload = canonical_json({
        "kind": spec["kind"], "seed": spec["seed"],
        "params": spec.get("params", {}), "faults": spec.get("faults"),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass(frozen=True, slots=True)
class CampaignGrid:
    """An ordered, named set of cells (one evaluation sweep)."""

    name: str
    cells: tuple[CampaignCell, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError(f"campaign grid {self.name!r} has no cells")
        keys = [c.key for c in self.cells]
        dupes = {k for k in keys if keys.count(k) > 1}
        if dupes:
            raise ValueError(
                f"campaign grid {self.name!r} contains duplicate cells: "
                f"{sorted(dupes)}")

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> _t.Iterator[CampaignCell]:
        return iter(self.cells)


def grid_from_toml(path: str | pathlib.Path) -> CampaignGrid:
    """Load a declarative grid from a TOML file.

    Format (times/params per cell kind; ``seeds`` fans every row out)::

        name = "my-sweep"
        description = "optional"

        [[cell]]
        kind = "scenario"
        seeds = [1, 2, 3]
        group = "small"
        params = { n_nodes = 10, n_maps = 10, n_reducers = 2 }

        [[cell]]
        kind = "churn"
        seeds = [4]
        faults = "flaky-network"
    """
    path = pathlib.Path(path)
    with path.open("rb") as fh:
        data = tomllib.load(fh)
    rows = data.get("cell", [])
    if not rows:
        raise ValueError(f"campaign TOML {path} defines no [[cell]] rows")
    cells: list[CampaignCell] = []
    for row in rows:
        seeds = row.get("seeds", [row.get("seed", 0)])
        if isinstance(seeds, int):
            seeds = [seeds]
        for seed in seeds:
            cells.append(CampaignCell(
                kind=row["kind"], seed=int(seed),
                params=dict(row.get("params", {})),
                faults=row.get("faults"),
                group=row.get("group", "")))
    return CampaignGrid(name=data.get("name", path.stem),
                        cells=tuple(cells),
                        description=data.get("description", ""))
