"""The paper's studies as campaign grids.

A grid is a study at some seeds: :func:`study_grid` is the one builder.
``paper`` is the whole evaluation — every variant of every study in
:data:`repro.experiments.STUDIES` at its documented seed — so ``python
-m repro campaign coordinate --grid paper`` regenerates every number in
EXPERIMENTS.md; ``--grid <study>`` fans one study out over seeds, and
:mod:`repro.analysis.campaign` folds the seeds back into tables.
"""

from __future__ import annotations

import typing as _t

from ..campaign import CampaignCell, CampaignGrid
from . import table1
from .study import Study

#: Default seed fan-out for multi-seed sweeps.
DEFAULT_SEEDS: tuple[int, ...] = (1, 2, 3)


def study_grid(study: Study, seeds: _t.Sequence[int] = DEFAULT_SEEDS,
               faults: str | None = None) -> CampaignGrid:
    """Every variant of *study* x every seed, the variant outermost.

    A variant is a ``study`` cell (params ``{study, variant}``, group
    ``<study>/<variant>``).  The cell seed is the sweep seed itself: a
    one-seed grid reproduces the study's variants at that seed.  *faults*
    arms a chaos plan on every deployment every cell builds.
    """
    cells = [CampaignCell(kind="study", seed=seed,
                          params={"study": study.name, "variant": variant},
                          faults=faults, group=f"{study.name}/{variant}")
             for variant in study.variants for seed in seeds]
    n = len(study.variants)
    return CampaignGrid(
        name=study.name, cells=tuple(cells),
        description=f"{n} variant{'s' * (n != 1)} x seeds "
                    f"{','.join(map(str, seeds))}")


def table1_grid(seeds: _t.Sequence[int] = DEFAULT_SEEDS) -> CampaignGrid:
    """:func:`study_grid` of Table I: every row x every seed (a name of its
    own because the perf ledger's ``campaign_table1`` workload imports it)."""
    return study_grid(table1.STUDY, seeds)


def paper_grid(faults: str | None = None) -> CampaignGrid:
    """Every variant of every study at the seed its EXPERIMENTS.md section
    documents (Table I first, so a ``--grid table1 --seeds 1`` store and a
    ``paper`` store share those nine keys), under *faults* if given."""
    from . import STUDIES

    return CampaignGrid(
        name="paper",
        cells=tuple(cell for study in STUDIES
                    for cell in study_grid(study, (study.seed,), faults)),
        description="every table, figure and claim in EXPERIMENTS.md")


def resolve_grid(name_or_path: str, seeds: _t.Sequence[int] | None = None,
                 faults: str | None = None) -> CampaignGrid:
    """``paper``, a study by name, or a declarative grid from a TOML path.

    *seeds* overrides a study's default fan-out (:data:`DEFAULT_SEEDS`);
    *faults* arms a chaos plan on every cell.
    """
    from ..campaign import grid_from_toml
    from . import STUDIES

    if name_or_path == "paper":
        if seeds is not None:
            raise ValueError(
                "--seeds does not apply to the paper grid: each study runs "
                "at the seed its EXPERIMENTS.md section documents")
        return paper_grid(faults)
    study = next((s for s in STUDIES if s.name == name_or_path), None)
    if study is not None:
        return study_grid(study, DEFAULT_SEEDS if seeds is None
                          else tuple(seeds), faults)
    if name_or_path.endswith(".toml"):
        return grid_from_toml(name_or_path)
    raise ValueError(
        f"unknown grid {name_or_path!r}: expected 'paper', a study name "
        f"({', '.join(s.name for s in STUDIES)}) or a .toml path")
