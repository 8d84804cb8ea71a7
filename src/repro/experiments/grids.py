"""The paper's sweeps expressed as campaign grids.

Each builder returns a :class:`repro.campaign.CampaignGrid`.  ``paper``
is the whole evaluation: every variant of every study in
:data:`repro.experiments.STUDIES` at its documented seed, so ``python -m
repro campaign coordinate --grid paper`` regenerates every number in
EXPERIMENTS.md.  The others fan one study out over seeds (and, where it
makes sense, a chaos plan) — the Table I grid, the churn study, the
replication sweep, and the simulator-scalability study — and
:mod:`repro.analysis.campaign` folds the seeds back into tables.

Per-replicate seeds are derived with :func:`repro.sim.derive_seed`, so
every cell owns an independent, reproducible rng universe regardless of
worker scheduling.
"""

from __future__ import annotations

import typing as _t

from ..campaign import CampaignCell, CampaignGrid
from ..sim import derive_seed
from . import replication, table1
from .table1 import PAPER_TABLE1

#: Default seed fan-out for multi-seed sweeps.
DEFAULT_SEEDS: tuple[int, ...] = (1, 2, 3)


def table1_grid(seeds: _t.Sequence[int] = DEFAULT_SEEDS,
                faults: str | None = None) -> CampaignGrid:
    """Every Table I row x every seed (9 x len(seeds) cells).

    The per-cell seed is the sweep seed itself, so a one-seed grid
    reproduces ``run_table1(seed=s)`` cell for cell.
    """
    cells = [
        CampaignCell(kind="table1", seed=seed, params={"row": i},
                     faults=faults, group=row.label)
        for i, row in enumerate(PAPER_TABLE1)
        for seed in seeds
    ]
    return CampaignGrid(
        name="table1", cells=tuple(cells),
        description="Table I word-count makespan grid across seeds")


def churn_grid(seeds: _t.Sequence[int] = DEFAULT_SEEDS,
               replicates: int = 2,
               mean_on_s: float = 1800.0, mean_off_s: float = 600.0,
               departure_prob: float = 0.05) -> CampaignGrid:
    """Churn-study replicates: each (seed, replicate) is one cell."""
    cells = [
        CampaignCell(
            kind="churn", seed=derive_seed(seed, "churn", rep),
            params={"mean_on_s": mean_on_s, "mean_off_s": mean_off_s,
                    "departure_prob": departure_prob},
            group="churn")
        for seed in seeds
        for rep in range(replicates)
    ]
    return CampaignGrid(
        name="churn", cells=tuple(cells),
        description="job survival under ON/OFF volatility + departures")


def replication_grid(seeds: _t.Sequence[int] = DEFAULT_SEEDS,
                     byzantine_rate: float = 0.2) -> CampaignGrid:
    """The replication/quorum sweep (1/1, the paper's 2/2, 3/2) x seeds."""
    cells = [
        CampaignCell(
            kind="replication", seed=derive_seed(seed, "replication", r, q),
            params={"replication": r, "quorum": q,
                    "byzantine_rate": byzantine_rate},
            group=f"repl{r}q{q}")
        for r, q in replication.POINTS
        for seed in seeds
    ]
    return CampaignGrid(
        name="replication", cells=tuple(cells),
        description="redundancy overhead vs byzantine resilience")


def scale_out_grid(seeds: _t.Sequence[int] = (1,),
                   sizes: _t.Sequence[int] = (100, 500),
                   ) -> CampaignGrid:
    """Simulator-scalability points (size x seed).

    Wall-clock throughput is the runner's ``meta.wall_s`` per cell; the
    deterministic payload carries events/makespan for cross-checks.
    """
    cells = [
        CampaignCell(kind="scale_out", seed=seed,
                     params={"n_nodes": n}, group=f"scale{n}")
        for n in sizes
        for seed in seeds
    ]
    return CampaignGrid(
        name="scale_out", cells=tuple(cells),
        description="simulator throughput at volunteer-platform scale")


def paper_grid() -> CampaignGrid:
    """Every variant of every study at the seed its EXPERIMENTS.md section
    documents.  Table I's variants stay the ``table1`` cells they have
    always been, so a ``--grid table1 --seeds 1`` store and a ``paper``
    store share those nine keys."""
    from . import STUDIES

    cells = list(table1_grid(seeds=(table1.STUDY.seed,)).cells)
    cells += [
        CampaignCell(kind="study", seed=study.seed,
                     params={"study": study.name, "variant": variant},
                     group=f"{study.name}/{variant}")
        for study in STUDIES if study is not table1.STUDY
        for variant in study.variants
    ]
    return CampaignGrid(
        name="paper", cells=tuple(cells),
        description="every table, figure and claim in EXPERIMENTS.md")


#: Builtin grid builders addressable from the CLI (``--grid NAME``).
GRID_BUILDERS: dict[str, _t.Callable[..., CampaignGrid]] = {
    "paper": paper_grid,
    "table1": table1_grid,
    "churn": churn_grid,
    "replication": replication_grid,
    "scale_out": scale_out_grid,
}


def resolve_grid(name_or_path: str, seeds: _t.Sequence[int] | None = None,
                 faults: str | None = None) -> CampaignGrid:
    """A builtin grid by name, or a declarative grid from a TOML path.

    *seeds* overrides the builtin default fan-out; *faults* arms a chaos
    plan on every cell of grids that support it (currently ``table1``).
    """
    from ..campaign import grid_from_toml

    builder = GRID_BUILDERS.get(name_or_path)
    if builder is None:
        if name_or_path.endswith(".toml"):
            return grid_from_toml(name_or_path)
        raise ValueError(
            f"unknown grid {name_or_path!r}: expected one of "
            f"{sorted(GRID_BUILDERS)} or a .toml path")
    kwargs: dict[str, _t.Any] = {}
    if seeds is not None:
        if builder is paper_grid:
            raise ValueError(
                "--seeds does not apply to the paper grid: each study runs "
                "at the seed its EXPERIMENTS.md section documents")
        kwargs["seeds"] = tuple(seeds)
    if faults is not None:
        if builder is not table1_grid:
            raise ValueError(
                f"--faults is only supported for the table1 grid, "
                f"not {name_or_path!r}")
        kwargs["faults"] = faults
    return builder(**kwargs)
