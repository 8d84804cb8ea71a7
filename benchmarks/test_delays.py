"""Benchmark: the Section IV.B delay narrative, quantified.

The paper attributes its inflated phase times to three mechanisms; this
bench measures each on the 20/20/5 scenario and prints the decomposition:

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

import statistics

import pytest

from repro.analysis import backoff_delays, job_metrics, report_lags
from repro.core import CloudSpec, MapReduceJobSpec
from repro.experiments import run_scenario


@pytest.fixture(scope="module")
def result():
    return run_scenario(CloudSpec(seed=1, n_nodes=20),
                        MapReduceJobSpec("delays", n_maps=20, n_reducers=5))


def test_delay_decomposition(benchmark, result):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    m = result.metrics
    lags = [lag for _h, lag in report_lags(result.tracer, "delays")]
    delays = backoff_delays(result.tracer)
    print()
    print("Section IV.B delay decomposition (20 nodes / 20 maps / 5 reduces)")
    print(f"  report lag (ready -> reported): mean {statistics.fmean(lags):6.1f}s"
          f"  max {max(lags):6.1f}s over {len(lags)} results")
    print(f"  backoff deferrals issued:       {len(delays)} "
          f"(mean {statistics.fmean(delays):5.1f}s, max {max(delays):5.1f}s)")
    print(f"  map->reduce transition gap:     {m.transition_gap:6.1f}s")
    print(f"  map mean {m.map_stats.mean:6.1f}s  reduce mean "
          f"{m.reduce_stats.mean:6.1f}s  total {m.total:7.1f}s")


def test_report_lag_bounded_by_backoff_cap(result):
    lags = [lag for _h, lag in report_lags(result.tracer, "delays")]
    assert max(lags) <= 600.0 * 1.5 + 60.0
    assert statistics.fmean(lags) > 1.0  # the effect exists


def test_backoff_delays_grow_to_cap_band(result):
    delays = backoff_delays(result.tracer)
    assert min(delays) >= 60.0 * 0.5          # min * (1 - jitter)
    assert max(delays) <= 600.0 * 1.5 + 1e-9  # cap * (1 + jitter)
    assert max(delays) > 100.0                # growth actually happened


def test_transition_gap_positive_and_bounded(result):
    m = result.metrics
    assert 0 <= m.transition_gap < 600.0 * 1.5 + 35.0


def test_uploads_not_delayed_by_backoff(result):
    """The delay is in *reporting*, not in moving the data."""
    tracer = result.tracer
    ready = {r["result"]: r.time for r in tracer.select("task.ready")}
    uploads = {r["result"]: r.time
               for r in tracer.select("server.upload_received")}
    gaps = [abs(uploads[rid] - ready[rid]) for rid in uploads if rid in ready]
    assert gaps and statistics.fmean(gaps) < 5.0
