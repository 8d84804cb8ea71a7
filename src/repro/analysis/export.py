"""Flat views of a trace for external analysis.

The offline environment has no plotting stack; :func:`trace_to_csv`
writes a file any external tool (pandas, gnuplot, a spreadsheet) can
consume, and :func:`utilisation_timeline` buckets one record kind over
time.  The Chrome-trace, JSONL and run-summary exporters live in
:mod:`repro.obs`.
"""

from __future__ import annotations

import csv
import io
import typing as _t

from ..sim import Tracer


def trace_to_csv(tracer: Tracer, kinds: _t.Sequence[str] | None = None,
                 out: _t.TextIO | None = None) -> str:
    """Serialise trace records to CSV (one row per record).

    Field columns are the union of all selected records' fields, sorted
    for stability.  Returns the CSV text (also written to *out* if given).
    """
    records = [r for r in tracer.records
               if kinds is None or r.kind in kinds]
    field_names: set[str] = set()
    for rec in records:
        field_names.update(rec.fields)
    fields = sorted(field_names)
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
    text = buf.getvalue()
    if out is not None:
        out.write(text)
    return text


def utilisation_timeline(tracer: Tracer, bucket_s: float = 30.0,
                         kind: str = "sched.rpc") -> list[tuple[float, int]]:
    """Events per time bucket — e.g. scheduler RPC load over the run.

    Returns ``(bucket_start, count)`` pairs covering the full span of the
    trace, including empty buckets (so plots show the gaps).
    """
    if bucket_s <= 0:
        raise ValueError("bucket_s must be positive")
    times = tracer.times(kind)
    if not times:
        return []
    start = 0.0
    end = max(times)
    n_buckets = int(end // bucket_s) + 1
    counts = [0] * n_buckets
    for t in times:
        counts[int(t // bucket_s)] += 1
    return [(start + i * bucket_s, counts[i]) for i in range(n_buckets)]
