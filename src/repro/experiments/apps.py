"""Which applications suit BOINC-MR? (Section IV.B future work)

"In future iterations, we expect to experiment with a wider range of
applications, to evaluate which scenarios are the most suited."  This
study runs three application cost profiles — word count, distributed
grep, inverted index — through both vanilla BOINC and BOINC-MR: the
benefit of inter-client transfers scales with the volume of intermediate
data that would otherwise round-trip through the server.
"""

from __future__ import annotations

import functools
import typing as _t

from ..core import (GREP, INVERTED_INDEX, WORD_COUNT, CloudSpec,
                    MapReduceJobSpec, MapReduceCostModel)
from .scenario import metrics_payload, run_scenario
from .study import VARIANT, Claim, Study, col

APPS: dict[str, MapReduceCostModel] = {
    "wordcount": WORD_COUNT,
    "grep": GREP,
    "invindex": INVERTED_INDEX,
}


def app_payload(app_name: str, mr: bool, seed: int) -> dict[str, _t.Any]:
    """The 20/20/5 job with *app_name*'s cost profile on one client kind."""
    cost = APPS[app_name]
    result = run_scenario(
        CloudSpec(seed=seed, n_nodes=20, mr_clients=mr),
        MapReduceJobSpec(app_name, n_maps=20, n_reducers=5, cost=cost,
                         app_name=app_name))
    return {**metrics_payload(result.metrics),
            "intermediate_ratio": cost.intermediate_ratio}


def _reduce_gain(p: _t.Mapping[str, _t.Any], app: str) -> float:
    """Seconds BOINC-MR takes off *app*'s mean reduce time."""
    return p[f"{app}_vanilla"]["reduce_mean"] - p[f"{app}_mr"]["reduce_mean"]


STUDY = Study(
    name="apps", seed=1,
    variants={f"{app}_{kind}": functools.partial(app_payload, app, mr)
              for app in APPS
              for kind, mr in (("vanilla", False), ("mr", True))},
    columns=(
        VARIANT,
        col("intermediate ratio", "{intermediate_ratio:.2f}"),
        col("reduce mean", "{reduce_mean:.1f} s"),
        col("total", "{total:.1f} s"),
    ),
    claims=(
        Claim("BOINC-MR's reduce-phase gain grows with intermediate data "
              "volume: inverted index and word count both gain more than "
              "grep.",
              lambda p: _reduce_gain(p, "invindex") > _reduce_gain(p, "grep")
              and _reduce_gain(p, "wordcount") > _reduce_gain(p, "grep")),
        Claim("Distributed grep, with near-zero intermediate data, is "
              "indifferent to inter-client transfers.",
              lambda p: abs(_reduce_gain(p, "grep"))
              < 0.5 * p["grep_vanilla"]["reduce_mean"]),
    ),
)
