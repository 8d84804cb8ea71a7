"""Cell executors: run one campaign cell and return its result payload.

:func:`execute_cell` is the single entry point the campaign runner calls
— in-process for sequential runs, inside a worker process for parallel
ones.  Every executor builds its deployment from the cell's own seed via
the normal :class:`repro.sim.RngRegistry` streams, so a cell's payload
depends only on its spec: running it alone, sequentially, or on any
worker of a pool produces byte-identical results (asserted by
``tests/campaign/`` and ``benchmarks/test_campaign.py``).

Payloads are JSON-able dicts of *deterministic* quantities only; wall
clock, attempt counts, and worker identity belong to the runner's
``meta`` side-channel, never to the payload.
"""

from __future__ import annotations

import time
import typing as _t

#: Scenario fields a cell may set (the JSON-able subset of
#: :class:`repro.experiments.Scenario`).
SCENARIO_PARAMS: tuple[str, ...] = (
    "name", "n_nodes", "n_maps", "n_reducers", "mr_clients", "input_size",
    "replication", "quorum", "fast_node_fraction", "byzantine_rate",
    "timeout_s", "app_name",
)


def _metrics_payload(metrics: _t.Any) -> dict[str, _t.Any]:
    """The paper's Table I cell set, as a flat JSON-able dict."""
    return {
        "total": metrics.total,
        "total_discard_slowest": metrics.total_discard_slowest,
        "map_mean": metrics.map_stats.mean,
        "map_discard_slowest": metrics.map_stats.mean_discard_slowest,
        "reduce_mean": metrics.reduce_stats.mean,
        "reduce_discard_slowest": metrics.reduce_stats.mean_discard_slowest,
        "transition_gap": metrics.transition_gap,
    }


def _run_deployment(scenario: _t.Any, faults: str | None) -> dict[str, _t.Any]:
    """Build, optionally fault-inject, and run one scenario deployment."""
    from ..analysis import job_metrics
    from ..experiments.scenario import build_cloud, job_spec

    cloud = build_cloud(scenario)
    injector = cloud.apply_faults(faults) if faults else None
    job = cloud.run_job(job_spec(scenario), timeout=scenario.timeout_s)
    payload = _metrics_payload(job_metrics(cloud.tracer, scenario.name))
    payload["events"] = cloud.sim.dispatch_count
    payload["sim_end"] = cloud.sim.now
    if injector is not None:
        report = cloud.audit(job)
        payload["faults_injected"] = len(injector.events)
        payload["audit_ok"] = report.ok
    return payload


def _execute_scenario(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """A single :class:`~repro.experiments.Scenario` run."""
    from ..experiments import Scenario

    params = dict(spec.get("params", {}))
    unknown = set(params) - set(SCENARIO_PARAMS)
    if unknown:
        raise ValueError(f"unknown scenario params: {sorted(unknown)}")
    params.setdefault("name", "cell")
    scenario = Scenario(seed=spec["seed"], **params)
    return _run_deployment(scenario, spec.get("faults"))


def _execute_table1(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One Table I row (by index into :data:`repro.experiments.PAPER_TABLE1`)."""
    from ..experiments import PAPER_TABLE1, scenario_for_row

    row = PAPER_TABLE1[spec["params"]["row"]]
    scenario = scenario_for_row(row, seed=spec["seed"])
    payload = _run_deployment(scenario, spec.get("faults"))
    payload["paper_total"] = row.paper_total.mean
    payload["paper_map"] = row.paper_map.mean
    payload["paper_reduce"] = row.paper_reduce.mean
    return payload


def _execute_churn(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One churn-study run (:func:`repro.experiments.run_churn`)."""
    from ..experiments import run_churn

    outcome = run_churn(seed=spec["seed"], **dict(spec.get("params", {})))
    return {
        "total": outcome.total,
        "transitions": outcome.transitions,
        "departed": outcome.departed,
        "peer_fetches": outcome.peer_fetches,
        "server_fallbacks": outcome.server_fallbacks,
        "replacement_results": outcome.replacement_results,
    }


def _execute_replication(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One replication-sweep point (:func:`repro.experiments.run_replication`)."""
    from ..experiments import run_replication

    outcome = run_replication(seed=spec["seed"], **dict(spec.get("params", {})))
    return {
        "total": outcome.total,
        "replication": outcome.replication,
        "quorum": outcome.quorum,
        "byzantine_rate": outcome.byzantine_rate,
        "results_executed": outcome.results_executed,
        "corrupt_accepted": outcome.corrupt_accepted,
        "workunits": outcome.workunits,
        "overhead": outcome.overhead,
    }


def _execute_scale_out(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One simulator-scalability point; wall-clock fields are dropped
    (they are nondeterministic and belong to the runner's meta)."""
    from ..experiments import scale_out

    point = scale_out(seed=spec["seed"], **dict(spec.get("params", {})))
    return {
        "n_nodes": point.n_nodes,
        "n_jobs": point.n_jobs,
        "events": point.events,
        "makespan_s": point.makespan_s,
        "peak_queue_depth": point.peak_queue_depth,
    }


def _execute_sleep(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """Synthetic wall-clock cell: used by the campaign benchmark to
    measure pure fan-out speedup, and by tests to exercise timeouts."""
    duration = float(spec.get("params", {}).get("duration_s", 0.1))
    time.sleep(duration)
    return {"slept_s": duration}


_EXECUTORS: dict[str, _t.Callable[[_t.Mapping[str, _t.Any]],
                                  dict[str, _t.Any]]] = {
    "scenario": _execute_scenario,
    "table1": _execute_table1,
    "churn": _execute_churn,
    "replication": _execute_replication,
    "scale_out": _execute_scale_out,
    "sleep": _execute_sleep,
}


def execute_cell(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """Run one cell spec (see :meth:`repro.campaign.CampaignCell.spec`) to completion.

    Returns the deterministic result payload; raises on any failure (the
    runner converts exceptions into quarantine records).
    """
    try:
        executor = _EXECUTORS[spec["kind"]]
    except KeyError:
        raise ValueError(f"unknown cell kind {spec.get('kind')!r}") from None
    return executor(spec)
