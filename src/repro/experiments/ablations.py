"""Section IV.C ablations: minimising the impact of slower nodes.

The paper proposes three mitigations for the backoff pathology and the
map->reduce dead time; each is a toggle in this codebase, and each
ablation here runs the 20-node / 20-map / 5-reduce scenario with and
without the mitigation:

1. **Multiple concurrent jobs** — "having work constantly available at the
   scheduler should minimize the problem": submit k jobs at once so no
   client ever receives a no-work reply mid-run.
2. **Priority map reporting** — "map work units should ... be reported as
   soon as their upload is completed": the client's
   ``report_immediately`` flag.
3. **Intermediate data downloads** — "clients should be able to start
   downloading as soon as files become available": create reduce WUs
   after a fraction of maps validate and let reducers poll for the rest
   (``reduce_creation_fraction``).
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as _t

from ..analysis import job_metrics, report_lags
from ..boinc.client import ClientConfig
from ..core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from .scenario import run_scenario


@dataclasses.dataclass(slots=True)
class AblationOutcome:
    """Baseline vs mitigated measurements for one ablation."""

    name: str
    baseline_total: float
    mitigated_total: float
    baseline_detail: dict[str, float]
    mitigated_detail: dict[str, float]

    @property
    def improvement(self) -> float:
        """Fractional total-makespan reduction (positive = mitigation wins)."""
        return 1.0 - self.mitigated_total / self.baseline_total


def _base_scenario(seed: int, name: str, **cloud_overrides: _t.Any
                   ) -> tuple[CloudSpec, MapReduceJobSpec]:
    return (CloudSpec(seed=seed, n_nodes=20, **cloud_overrides),
            MapReduceJobSpec(name, n_maps=20, n_reducers=5))


def _mean_report_lag(tracer, job: str) -> float:
    lags = [lag for _host, lag in report_lags(tracer, job)]
    return statistics.fmean(lags) if lags else 0.0


def ablate_report_immediately(seed: int = 1) -> AblationOutcome:
    """Priority reporting of finished results (ablation 2)."""
    base = run_scenario(*_base_scenario(seed, "abl_report_base"))
    mitigated = run_scenario(*_base_scenario(
        seed, "abl_report_fast",
        client_config=ClientConfig(report_immediately=True)))
    return AblationOutcome(
        name="report_immediately",
        baseline_total=base.metrics.total,
        mitigated_total=mitigated.metrics.total,
        baseline_detail={
            "mean_report_lag": _mean_report_lag(base.tracer, "abl_report_base"),
            "map_mean": base.metrics.map_stats.mean,
        },
        mitigated_detail={
            "mean_report_lag": _mean_report_lag(mitigated.tracer,
                                                "abl_report_fast"),
            "map_mean": mitigated.metrics.map_stats.mean,
        },
    )


def ablate_intermediate_downloads(seed: int = 1,
                                  fraction: float = 0.5) -> AblationOutcome:
    """Early reduce creation + download overlap (ablation 3)."""
    base = run_scenario(*_base_scenario(seed, "abl_overlap_base"))
    mitigated = run_scenario(*_base_scenario(
        seed, "abl_overlap_early",
        mr_config=dataclasses.replace(BoincMRConfig.vanilla_boinc(),
                                      reduce_creation_fraction=fraction)))
    return AblationOutcome(
        name="intermediate_downloads",
        baseline_total=base.metrics.total,
        mitigated_total=mitigated.metrics.total,
        baseline_detail={"transition_gap": base.metrics.transition_gap},
        mitigated_detail={"transition_gap": mitigated.metrics.transition_gap},
    )


def ablate_concurrent_jobs(seed: int = 1, n_jobs: int = 3) -> AblationOutcome:
    """Work always available at the scheduler (ablation 1).

    Runs ``n_jobs`` identical jobs concurrently; the mitigation metric is
    the mean report lag of the *first* job (extra work keeps clients from
    ever backing off), compared to the same job running alone.
    """
    spec, job0 = _base_scenario(seed, "abl_multi_0")
    solo = run_scenario(spec, job0)

    cloud = VolunteerCloud.from_spec(spec)
    jobs = [cloud.submit(dataclasses.replace(job0, name=f"abl_multi_{j}"))
            for j in range(n_jobs)]
    cloud.run_until(cloud.sim.all_of([job.done for job in jobs]))
    first = job_metrics(cloud.tracer, "abl_multi_0")
    return AblationOutcome(
        name="concurrent_jobs",
        baseline_total=solo.metrics.total,
        mitigated_total=first.total,
        baseline_detail={
            "mean_report_lag": _mean_report_lag(solo.tracer, "abl_multi_0"),
            "backoffs": float(len(solo.tracer.select("client.backoff"))),
        },
        mitigated_detail={
            "mean_report_lag": _mean_report_lag(cloud.tracer, "abl_multi_0"),
            "backoffs": float(len(cloud.tracer.select("client.backoff"))),
        },
    )


def run_all(seed: int = 1) -> list[AblationOutcome]:
    """Run every ablation at one seed."""
    return [
        ablate_report_immediately(seed),
        ablate_intermediate_downloads(seed),
        ablate_concurrent_jobs(seed),
    ]
