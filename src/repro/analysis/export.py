"""Flat views of a trace for external analysis.

The offline environment has no plotting stack; :func:`trace_to_csv`
writes a file any external tool (pandas, gnuplot, a spreadsheet) can
consume, and :func:`utilisation_timeline` buckets the scheduler RPCs
over time.  The Chrome-trace, JSONL and run-summary exporters live in
:mod:`repro.obs`.
"""

from __future__ import annotations

import csv
import io

from ..sim import Tracer


def trace_to_csv(tracer: Tracer) -> str:
    """Serialise trace records to CSV (one row per record).

    Field columns are the union of all records' fields, sorted for
    stability.
    """
    records = tracer.records
    # Rows with the same fields share one key tuple.
    fields = sorted(set().union(*{rec.keys for rec in records}))
    # A payload field may shadow the two record columns (e.g. sched.assign
    # carries kind="map"); keep both under distinct headers.
    header = ["time", "kind",
              *(f"field.{k}" if k in ("time", "kind") else k for k in fields)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for rec in records:
        writer.writerow([rec.time, rec.kind]
                        + [rec.get(k, "") for k in fields])
    return buf.getvalue()


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
