"""Experiment harness: Table I, Fig. 4, ablations, NAT and churn studies."""

from .ablations import (
    AblationOutcome,
    ablate_concurrent_jobs,
    ablate_intermediate_downloads,
    ablate_report_immediately,
)
from .churn import ChurnOutcome, churn_scenario, run_churn
from .fig4 import Fig4Result, fig4_scenario, run_fig4
from .grids import (
    GRID_BUILDERS,
    churn_grid,
    replication_grid,
    resolve_grid,
    scale_out_grid,
    table1_grid,
)
from .planetlab import (
    InternetDeployment,
    build_internet_cloud,
    run_internet_deployment,
    run_lan_vs_internet,
)
from .nat_study import LADDERS, NatStudyOutcome, nat_scenario, run_ladder_study
from .replication import ReplicationOutcome, run_replication, sweep as replication_sweep
from .scaling import (
    SCALE_NODE_COUNTS,
    ScalePoint,
    SweepPoint,
    build_scale_cloud,
    granularity_scaling,
    node_scaling,
    scale_out,
    speedup,
)
from .server_load import LoadPoint, congestion_ratio, run_load_point, run_load_sweep
from ..core.system import PC3001_FLOPS, PCR200_FLOPS
from .scenario import ScenarioResult, run_scenario
from .table1 import (
    PAPER_TABLE1,
    PaperCell,
    Table1Record,
    Table1Row,
    render,
    run_table1,
    scenario_for_row,
)

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "PC3001_FLOPS",
    "PCR200_FLOPS",
    "PAPER_TABLE1",
    "Table1Row",
    "Table1Record",
    "PaperCell",
    "run_table1",
    "scenario_for_row",
    "render",
    "Fig4Result",
    "fig4_scenario",
    "run_fig4",
    "AblationOutcome",
    "ablate_report_immediately",
    "ablate_intermediate_downloads",
    "ablate_concurrent_jobs",
    "NatStudyOutcome",
    "LADDERS",
    "nat_scenario",
    "run_ladder_study",
    "ChurnOutcome",
    "churn_scenario",
    "run_churn",
    "InternetDeployment",
    "build_internet_cloud",
    "run_internet_deployment",
    "run_lan_vs_internet",
    "ReplicationOutcome",
    "run_replication",
    "replication_sweep",
    "SweepPoint",
    "node_scaling",
    "granularity_scaling",
    "speedup",
    "SCALE_NODE_COUNTS",
    "ScalePoint",
    "build_scale_cloud",
    "scale_out",
    "LoadPoint",
    "run_load_point",
    "run_load_sweep",
    "congestion_ratio",
    "GRID_BUILDERS",
    "resolve_grid",
    "table1_grid",
    "churn_grid",
    "replication_grid",
    "scale_out_grid",
]
