"""The server's load over a run, read off its trace.

:func:`utilisation_timeline` buckets the scheduler RPCs over time.  The
trace exporters (Chrome trace, JSONL — the flat one, one object per
record) and the run summary live in :mod:`repro.obs`.
"""

from __future__ import annotations

from ..sim import Tracer


def utilisation_timeline(tracer: Tracer,
                         bucket_s: float = 30.0) -> list[tuple[float, int]]:
    """Scheduler RPCs per time bucket: the server's load over the run.

    Returns ``(bucket_start, count)`` pairs covering the full span of the
    trace, including empty buckets (so plots show the gaps).
    """
    if bucket_s <= 0:
        raise ValueError("bucket_s must be positive")
    times = tracer.times("sched.rpc")
    if not times:
        return []
    start = 0.0
    end = max(times)
    n_buckets = int(end // bucket_s) + 1
    counts = [0] * n_buckets
    for t in times:
        counts[int(t // bucket_s)] += 1
    return [(start + i * bucket_s, counts[i]) for i in range(n_buckets)]
