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
    return run_deployment(*scenario_specs(spec), **timeout)


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


def _execute_sleep(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """Synthetic wall-clock cell: used by the campaign benchmark to
    measure pure fan-out speedup, and by tests to exercise timeouts."""
    duration = float(spec.get("params", {}).get("duration_s", 0.1))
    time.sleep(duration)
    return {"slept_s": duration}


#: What each cell kind is: its executor, the payload field that is its
#: headline metric (what :mod:`repro.analysis.campaign` folds over
#: seeds), and whether it builds deployments, which is what arms the
#: cell's chaos plan (a plan on any other kind would change the cell key
#: and nothing else, so :class:`~repro.campaign.CampaignCell` refuses
#: it).  The one declaration; a new kind is one entry here.
KINDS: dict[str, tuple[_t.Callable[..., dict[str, _t.Any]], str, bool]] = {
    "scenario": (_execute_scenario, "total", True),
    "study": (_execute_study, "total", True),
    "sleep": (_execute_sleep, "slept_s", False),
}


def preload() -> None:
    """Import every module :func:`execute_cell` reaches lazily.

    That is the executors' :mod:`repro.experiments`, the cell's
    :mod:`repro.core.system`, the :mod:`repro.faults` that
    :meth:`~repro.core.VolunteerCloud.audit` loads, and the
    :mod:`numpy.random` that numpy 2 loads on the first ``np.random``
    access.  A :class:`~repro.campaign.worker.CampaignWorker` calls it
    once, before its first lease, so every cell child it forks inherits
    them instead of importing them again.  Not done at ``import
    repro.campaign``: the coordinator and a plain import do not need them.
    """
    import numpy.random  # noqa: F401

    from .. import experiments, faults  # noqa: F401
    from ..core import system  # noqa: F401


def execute_cell(spec: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    """Run one cell spec (see :meth:`repro.campaign.CampaignCell.spec`) to completion.

    Returns the deterministic result payload; raises on any failure (the
    runner converts exceptions into quarantine records).

    The cell's chaos plan, if any, is armed on every deployment it builds
    (:func:`repro.core.system.collect_clouds`).  Each deployment is then
    audited (:meth:`repro.core.VolunteerCloud.audit`): after the payload
    is taken, since the audit runs each clock on until the daemons settle
    and straggling replicas drain.  Without a plan the verdict stays out
    of the payload — a violated invariant (a leaked flow or slot, a lost
    result) raises, so the cell fails naming it.  With one, the payload
    gains ``faults_injected`` (summed over the deployments) and
    ``audit_ok`` (every deployment clean).
    """
    from ..core.system import collect_clouds

    try:
        executor = KINDS[spec["kind"]][0]
    except KeyError:
        raise ValueError(f"unknown cell kind {spec.get('kind')!r}") from None
    faults = spec.get("faults") or None
    with collect_clouds(faults) as clouds:
        payload = executor(spec)
    reports = [cloud.audit() for cloud in clouds]
    if faults:
        payload["faults_injected"] = sum(
            len(cloud.injector.events) for cloud in clouds if cloud.injector)
        payload["audit_ok"] = all(report.ok for report in reports)
        return payload
    for report in reports:
        if not report.ok:
            raise RuntimeError(f"cell {spec.get('group') or spec['kind']}"
                               f" failed its audit: {report.render()}")
    return payload
