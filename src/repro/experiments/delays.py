"""The Section IV.B delay narrative, quantified.

The paper attributes its inflated phase times to three mechanisms; this
study measures each on the 20-node / 20-map / 5-reduce scenario:

1. **Report-at-next-RPC** — outputs are uploaded immediately but tasks are
   only reported at the next scheduler RPC; the gap is bounded by the
   backoff cap (600 s).
2. **Backoff growth** — repeated no-work replies double client deferrals
   up to the cap.
3. **Map->reduce dead time** — after the last map report the server must
   validate, create reduce WUs, and feed them, while clients sit in
   backoff; the first reduce assignment therefore lags the last map
   report by (daemon pipeline + residual backoff).
"""

from __future__ import annotations

import statistics
import typing as _t

from ..analysis import backoff_delays, job_metrics, report_lags
from ..boinc.client import ClientConfig
from ..core import CloudSpec, MapReduceJobSpec
from ..sim import Tracer
from .scenario import metrics_payload, run_scenario
from .study import Claim, Study, col

_CLIENT = ClientConfig()
#: Smallest and largest deferral a jittered backoff draw can produce
#: (60 s and the paper's 600 s cap, +/-50 %).
BACKOFF_FLOOR_S = _CLIENT.backoff_min_s * (1 - _CLIENT.backoff_jitter)
BACKOFF_CEILING_S = _CLIENT.backoff_max_s * (1 + _CLIENT.backoff_jitter)


def delay_payload(tracer: Tracer, job: str) -> dict[str, _t.Any]:
    """The Table I cells of *job* plus where its time was lost: report
    lags, backoff deferrals and the upload-vs-ready gap."""
    lags = [lag for _host, lag in report_lags(tracer, job)]
    delays = backoff_delays(tracer)
    ready = {r["result"]: r.time for r in tracer.select("task.ready")}
    uploads = {r["result"]: r.time
               for r in tracer.select("server.upload_received")}
    upload_gaps = [abs(at - ready[rid]) for rid, at in uploads.items()
                   if rid in ready]
    return {
        **metrics_payload(job_metrics(tracer, job)),
        "reports": len(lags),
        "report_lag_mean": statistics.fmean(lags),
        "report_lag_max": max(lags),
        "backoffs": len(delays),
        "backoff_mean": statistics.fmean(delays),
        "backoff_min": min(delays),
        "backoff_max": max(delays),
        "upload_gap_mean": statistics.fmean(upload_gaps),
    }


def delays_payload(seed: int) -> dict[str, _t.Any]:
    """The 20/20/5 vanilla-BOINC run, decomposed."""
    result = run_scenario(CloudSpec(seed=seed, n_nodes=20),
                          MapReduceJobSpec("delays", n_maps=20, n_reducers=5))
    return delay_payload(result.tracer, "delays")


STUDY = Study(
    name="delays", seed=1,
    variants={"run": delays_payload},
    columns=(
        col("report lag, mean", "{report_lag_mean:.1f} s"),
        col("report lag, max", "{report_lag_max:.1f} s"),
        col("results", "{reports}"),
        col("backoff deferrals", "{backoffs}"),
        col("deferral, mean", "{backoff_mean:.1f} s"),
        col("deferral, max", "{backoff_max:.1f} s"),
        col("map→reduce gap", "{transition_gap:.1f} s"),
        col("map mean", "{map_mean:.1f} s"),
        col("reduce mean", "{reduce_mean:.1f} s"),
        col("total", "{total:.1f} s"),
    ),
    claims=(
        Claim("Report lag (output ready → reported) exists, and its "
              "maximum is bounded by the 600 s backoff cap plus jitter and "
              "one RPC.",
              lambda p: p["run"]["report_lag_mean"] > 1.0
              and p["run"]["report_lag_max"] <= BACKOFF_CEILING_S + 60.0),
        Claim("Backoff deferrals start in the 60 s band and grow into the "
              "cap band.",
              lambda p: p["run"]["backoff_min"] >= BACKOFF_FLOOR_S
              and 100.0 < p["run"]["backoff_max"] <= BACKOFF_CEILING_S + 1e-9),
        Claim("The map→reduce transition dead time is non-negative and "
              "bounded by the daemon pipeline plus residual backoff.",
              lambda p: 0 <= p["run"]["transition_gap"]
              < BACKOFF_CEILING_S + 35.0),
        Claim("The delay is in reporting, not in moving the data: uploads "
              "reach the server within 5 s of the output being ready, on "
              "average.",
              lambda p: p["run"]["upload_gap_mean"] < 5.0),
    ),
)
