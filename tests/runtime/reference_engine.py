"""Test oracle: ``LocalRunner.run_map_task`` as it was before a map task
grouped its keys while mapping, kept verbatim.

Every record goes through the app's per-record ``map``, every emitted
pair is partitioned on its own and appended to its partition's pair
list; with a combiner, each list is then grouped by key in a second pass.
The product task partitions the pairs of ``app.map_chunk``, each distinct
key once; it must return the same ``(TaskReport, blobs)`` for every app,
chunk and reducer count (``test_map_task_differential.py``).
"""

from __future__ import annotations

import pickle
import typing as _t

from repro.runtime.engine import TaskReport
from repro.runtime.splitter import iter_records


def run_map_task(runner, map_index: int, chunk: bytes
                 ) -> tuple[TaskReport, dict[int, bytes]]:
    """One map task of *runner*: records -> (k2, v2) pairs -> partitioned blobs."""
    partitions: dict[int, list[tuple]] = {r: [] for r in range(runner.n_reducers)}
    records = 0
    emitted = 0
    for offset, record in iter_records(chunk):
        records += 1
        for k2, v2 in runner.app.map(offset, record):
            partitions[runner.app.partition(k2, runner.n_reducers)].append((k2, v2))
            emitted += 1
    if runner.app.combine is not None:
        emitted = 0
        for r, pairs in partitions.items():
            combined: list[tuple] = []
            for key, values in _group(pairs).items():
                for v in runner.app.combine(key, values):
                    combined.append((key, v))
            partitions[r] = combined
            emitted += len(combined)
    blobs = {
        r: pickle.dumps(sorted(pairs, key=_stable_key))
        for r, pairs in partitions.items()
    }
    report = TaskReport(
        kind="map", index=map_index, records_in=records,
        records_out=emitted, bytes_in=len(chunk),
        bytes_out=sum(len(b) for b in blobs.values()))
    return report, blobs


def _group(pairs: _t.Iterable[tuple]) -> dict:
    grouped: dict = {}
    for k, v in pairs:
        grouped.setdefault(k, []).append(v)
    return grouped


def _stable_key(pair: tuple) -> str:
    return repr(pair[0])
