"""The local MapReduce engine: really runs map/shuffle/reduce on real data.

This is the executable counterpart of the simulated BOINC-MR pipeline —
the same three stages with the same partitioning rule, so properties shown
here (determinism, partition completeness, replica agreement) transfer to
the simulation's validation model.  It supports optional thread-pool
parallelism for the embarrassingly parallel map stage, combiners, and a
per-task execution trace used to derive cost-model statistics.

The engine deliberately materialises intermediate partitions as explicit
``(map_index, reduce_index) -> serialized bytes`` blobs: that is exactly
the unit BOINC-MR moves between clients, so the examples can report true
intermediate data volumes.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import pickle
import time
import typing as _t

from .api import MapReduceApp
from .splitter import iter_records, split_text

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry


@dataclasses.dataclass(frozen=True, slots=True)
class TaskReport:
    """Execution record of one map or reduce task."""

    kind: str
    index: int
    records_in: int
    records_out: int
    bytes_in: int
    bytes_out: int


@dataclasses.dataclass(slots=True)
class JobReport:
    """Everything a local run produced, including per-task accounting."""

    output: dict
    tasks: list[TaskReport]
    #: (map_index, reduce_index) -> intermediate partition size in bytes.
    partition_bytes: dict[tuple[int, int], int]

    @property
    def intermediate_bytes(self) -> int:
        """Total bytes across all map-output partitions."""
        return sum(self.partition_bytes.values())

    def map_tasks(self) -> list[TaskReport]:
        """Reports of the map tasks only."""
        return [t for t in self.tasks if t.kind == "map"]

    def reduce_tasks(self) -> list[TaskReport]:
        """Reports of the reduce tasks only."""
        return [t for t in self.tasks if t.kind == "reduce"]


class LocalRunner:
    """Run a :class:`MapReduceApp` over real input on this machine."""

    def __init__(self, app: MapReduceApp, n_maps: int, n_reducers: int,
                 max_workers: int | None = None,
                 metrics: "MetricsRegistry | None" = None) -> None:
        """A runner for *app* with a fixed map/reduce task split."""
        if n_maps < 1 or n_reducers < 1:
            raise ValueError("n_maps and n_reducers must be >= 1")
        self.app = app
        self.n_maps = n_maps
        self.n_reducers = n_reducers
        self.max_workers = max_workers
        #: Optional :class:`repro.obs.MetricsRegistry`: per-task wall-clock
        #: histograms and byte counters (the real engine's own telemetry).
        self.metrics = metrics

    # -- stages ---------------------------------------------------------------
    def run_map_task(self, map_index: int, chunk: bytes
                     ) -> tuple[TaskReport, dict[int, bytes]]:
        """One map task: records -> (k2, v2) pairs -> partitioned blobs.

        ``partition()`` is called once per distinct key.  With a combiner,
        values are grouped by key while mapping and each partition's keys
        are combined in first-seen order; without one, each partition
        keeps its pairs in emission order.  Either way a blob is the
        partition's pairs, stably sorted by key ``repr``, pickled.  Keys
        must be hashable (the reduce side groups them in a dict too), and
        keys that compare equal are one key, partitioned as the first seen.
        """
        app = self.app
        partition = app.partition
        n_reducers = self.n_reducers
        partitions: dict[int, list] = {r: [] for r in range(n_reducers)}
        records = 0
        emitted = 0
        if app.combine is None:
            part_of: dict = {}
            for offset, record in iter_records(chunk):
                records += 1
                for k2, v2 in app.map(offset, record):
                    r = part_of.get(k2)
                    if r is None:
                        r = part_of[k2] = partition(k2, n_reducers)
                    partitions[r].append((k2, v2))
                    emitted += 1
        else:
            # partitions[r] holds the distinct keys of r until combined.
            grouped: dict = {}
            for offset, record in iter_records(chunk):
                records += 1
                for k2, v2 in app.map(offset, record):
                    values = grouped.get(k2)
                    if values is None:
                        partitions[partition(k2, n_reducers)].append(k2)
                        grouped[k2] = [v2]
                    else:
                        values.append(v2)
            for r, keys in partitions.items():
                partitions[r] = [(key, v) for key in keys
                                 for v in app.combine(key, grouped[key])]
                emitted += len(partitions[r])
        blobs = {
            r: pickle.dumps(sorted(pairs, key=_stable_key))
            for r, pairs in partitions.items()
        }
        report = TaskReport(
            kind="map", index=map_index, records_in=records,
            records_out=emitted, bytes_in=len(chunk),
            bytes_out=sum(len(b) for b in blobs.values()))
        return report, blobs

    def run_reduce_task(self, reduce_index: int,
                        partition_blobs: _t.Sequence[bytes]
                        ) -> tuple[TaskReport, dict]:
        """One reduce task: merge this partition from every mapper, reduce."""
        pairs: list[tuple] = []
        bytes_in = 0
        for blob in partition_blobs:
            bytes_in += len(blob)
            pairs.extend(pickle.loads(blob))
        grouped = _group(pairs)
        output: dict = {}
        emitted = 0
        for key in sorted(grouped, key=repr):
            values = list(self.app.reduce(key, grouped[key]))
            emitted += len(values)
            output[key] = values[0] if len(values) == 1 else values
        report = TaskReport(
            kind="reduce", index=reduce_index, records_in=len(pairs),
            records_out=emitted, bytes_in=bytes_in,
            bytes_out=len(pickle.dumps(output)))
        return report, output

    # -- metrics ---------------------------------------------------------------
    _LOCAL_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

    def _observe_task(self, report: TaskReport, elapsed: float) -> None:
        """Feed one task's wall-clock cost and volumes into the registry.

        Called only from the coordinating thread — the registry's P²
        estimators are not thread-safe.
        """
        if self.metrics is None:
            return
        self.metrics.histogram(f"local.{report.kind}_task_s",
                               buckets=self._LOCAL_BUCKETS).observe(elapsed)
        self.metrics.counter(f"local.{report.kind}_bytes_in_total").inc(
            report.bytes_in)
        self.metrics.counter(f"local.{report.kind}_bytes_out_total").inc(
            report.bytes_out)

    def _timed_map_task(self, map_index: int, chunk: bytes
                        ) -> tuple[TaskReport, dict[int, bytes], float]:
        t0 = time.perf_counter()
        report, blobs = self.run_map_task(map_index, chunk)
        return report, blobs, time.perf_counter() - t0

    # -- whole job ---------------------------------------------------------------
    def run(self, data: bytes, parallel: bool = False) -> JobReport:
        """Execute the full job on *data*; returns merged output + reports."""
        chunks = split_text(data, self.n_maps)
        tasks: list[TaskReport] = []
        all_blobs: dict[tuple[int, int], bytes] = {}

        if parallel and self.n_maps > 1:
            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.max_workers) as pool:
                futures = [pool.submit(self._timed_map_task, i, chunk)
                           for i, chunk in enumerate(chunks)]
                map_results = [f.result() for f in futures]
        else:
            map_results = [self._timed_map_task(i, chunk)
                           for i, chunk in enumerate(chunks)]
        for i, (report, blobs, elapsed) in enumerate(map_results):
            tasks.append(report)
            self._observe_task(report, elapsed)
            for r, blob in blobs.items():
                all_blobs[(i, r)] = blob

        output: dict = {}
        for r in range(self.n_reducers):
            blobs = [all_blobs[(i, r)] for i in range(self.n_maps)]
            t0 = time.perf_counter()
            report, part_out = self.run_reduce_task(r, blobs)
            self._observe_task(report, time.perf_counter() - t0)
            tasks.append(report)
            overlap = set(part_out) & set(output)
            if overlap:  # partitioner guarantees disjoint key ranges
                raise RuntimeError(
                    f"partition overlap across reducers: {sorted(overlap)[:5]}")
            output.update(part_out)

        return JobReport(
            output=output,
            tasks=tasks,
            partition_bytes={k: len(b) for k, b in all_blobs.items()},
        )


def _group(pairs: _t.Iterable[tuple]) -> dict:
    grouped: dict = {}
    for k, v in pairs:
        grouped.setdefault(k, []).append(v)
    return grouped


def _stable_key(pair: tuple) -> str:
    return repr(pair[0])
