"""Cell executors: run one campaign cell and return its result payload.

:func:`execute_cell` is the single entry point: a lease-plane worker
calls it in a child process for each cell it leases, and
``run_campaign(workers=0)`` calls it in-process.  Every executor builds
its deployment from the cell's own seed via the normal
:class:`repro.sim.RngRegistry` streams, so a cell's payload depends only
on its spec: running it alone, inline, or on any worker produces
byte-identical results (asserted by ``tests/campaign/test_runner.py``
and the perf ledger's ``campaign_table1`` workload).

Payloads are JSON-able dicts of *deterministic* quantities only; wall
clock, attempt counts, and worker identity belong to the coordinator's
``meta`` side-channel, never to the payload.
"""

from __future__ import annotations

import dataclasses
import time
import typing as _t

_SCALARS = (bool, int, float, str)


def _scalar_fields(cls: type) -> set[str]:
    """Fields of dataclass *cls* a flat JSON cell can set, read off their
    annotations, so a new scalar field is a new cell param."""
    names = {t.__name__ for t in _SCALARS}
    return {f.name for f in dataclasses.fields(cls)
            if getattr(f.type, "__name__", f.type) in names}


def scenario_specs(spec: _t.Mapping[str, _t.Any]) -> tuple[_t.Any, _t.Any]:
    """The ``(CloudSpec, MapReduceJobSpec)`` a flat ``scenario`` cell names.

    Its params are the scalar fields of :class:`~repro.core.CloudSpec`
    (the seed is the cell's own) and :class:`~repro.core.MapReduceJobSpec`,
    plus ``timeout_s``; anything else is refused.
    """
    from ..core import CloudSpec, MapReduceJobSpec

    params = dict(spec.get("params", {}))
    cloud_names = _scalar_fields(CloudSpec) - {"seed"}
    job_names = _scalar_fields(MapReduceJobSpec)
    unknown = {k for k, v in params.items()
               if k not in cloud_names | job_names | {"timeout_s"}
               or not isinstance(v, _SCALARS)}
    if unknown:
        raise ValueError(f"unknown scenario params: {sorted(unknown)}")
    params.setdefault("name", "cell")
    return (
        CloudSpec(seed=spec["seed"],
                  **{k: v for k, v in params.items() if k in cloud_names}),
        MapReduceJobSpec(
            **{k: v for k, v in params.items() if k in job_names}))


def _execute_scenario(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One run described by flat params (see :func:`scenario_specs`)."""
    from ..experiments import run_deployment

    params = spec.get("params", {})
    timeout = ({"timeout_s": params["timeout_s"]} if "timeout_s" in params
               else {})
    return run_deployment(*scenario_specs(spec), spec.get("faults"),
                          **timeout)


def _execute_table1(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One Table I row (by index into :data:`repro.experiments.PAPER_TABLE1`)."""
    from ..experiments import table1_payload

    return table1_payload(spec["params"]["row"], spec["seed"],
                          spec.get("faults"))


def _execute_churn(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One churn-study run (:func:`repro.experiments.run_churn`)."""
    from ..experiments import run_churn

    return run_churn(seed=spec["seed"], **dict(spec.get("params", {})))


def _execute_replication(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One replication-sweep point (:func:`repro.experiments.run_replication`)."""
    from ..experiments import run_replication

    return run_replication(seed=spec["seed"], **dict(spec.get("params", {})))


def _execute_study(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """One variant of one study in :data:`repro.experiments.STUDIES`."""
    from ..experiments import STUDIES

    params = spec.get("params", {})
    study = next((s for s in STUDIES if s.name == params.get("study")), None)
    if study is None or params.get("variant") not in study.variants:
        raise ValueError(
            f"unknown study variant {params.get('study')!r} / "
            f"{params.get('variant')!r}")
    return study.variants[params["variant"]](seed=spec["seed"])


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


#: What each cell kind is: its executor, and the payload field that is
#: its headline metric (what :mod:`repro.analysis.campaign` folds over
#: seeds).  The one declaration; a new kind is one entry here.
KINDS: dict[str, tuple[_t.Callable[..., dict[str, _t.Any]], str]] = {
    "scenario": (_execute_scenario, "total"),
    "study": (_execute_study, "total"),
    "table1": (_execute_table1, "total"),
    "churn": (_execute_churn, "total"),
    "replication": (_execute_replication, "total"),
    "scale_out": (_execute_scale_out, "makespan_s"),
    "sleep": (_execute_sleep, "slept_s"),
}


def execute_cell(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """Run one cell spec (see :meth:`repro.campaign.CampaignCell.spec`) to completion.

    Returns the deterministic result payload; raises on any failure (the
    runner converts exceptions into quarantine records).
    """
    try:
        executor, _headline = KINDS[spec["kind"]]
    except KeyError:
        raise ValueError(f"unknown cell kind {spec.get('kind')!r}") from None
    return executor(spec)
