"""Experiment harness: one :class:`Study` per EXPERIMENTS.md section.

:data:`STUDIES` is the one list of them — Table I, Fig. 4, the Section
IV.B / IV.C narrative and the extension studies — each declared beside
its experiment with its variants, its claims and its table's columns.
``python -m repro campaign coordinate --grid paper`` runs every variant
through the lease plane; ``tests/test_paper_claims.py`` and
``docs/gen_experiments.py`` read the resulting store.
"""

from . import (
    ablations,
    apps,
    churn,
    delays,
    extensions,
    fig4,
    nat_study,
    planetlab,
    replication,
    scaling,
    server_load,
    speculation,
    table1,
)
from .churn import run_churn
from .grids import paper_grid, resolve_grid, study_grid, table1_grid
from .nat_study import nat_scenario
from .replication import run_replication
from .scaling import SCALE_NODE_COUNTS, build_scale_cloud, scale_out
from .scenario import run_deployment, run_scenario
from .study import Claim, Study
from .table1 import PAPER_TABLE1, scenario_for_row, table1_payload

#: Every study, in EXPERIMENTS.md order.
STUDIES: tuple[Study, ...] = (
    table1.STUDY,
    fig4.STUDY,
    delays.STUDY,
    ablations.STUDY,
    nat_study.STUDY,
    churn.STUDY,
    apps.STUDY,
    planetlab.STUDY,
    speculation.STUDY,
    extensions.ADAPTIVE,
    extensions.SUPERNODE,
    scaling.NODE_SCALING,
    replication.STUDY,
    server_load.STUDY,
)

__all__ = [
    "Study",
    "Claim",
    "STUDIES",
    "run_scenario",
    "run_deployment",
    "PAPER_TABLE1",
    "scenario_for_row",
    "table1_payload",
    "nat_scenario",
    "run_churn",
    "run_replication",
    "SCALE_NODE_COUNTS",
    "build_scale_cloud",
    "scale_out",
    "resolve_grid",
    "study_grid",
    "table1_grid",
    "paper_grid",
]
