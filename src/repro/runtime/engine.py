"""The local MapReduce engine: really runs map/shuffle/reduce on real data.

This is the executable counterpart of the simulated BOINC-MR pipeline —
the same three stages with the same partitioning rule, so properties shown
here (determinism, partition completeness, replica agreement) transfer to
the simulation's validation model.  A map task partitions the pairs of
the app's ``map_chunk`` (combined, when the app has a combiner), and
every task reports its record and byte volumes.

The engine deliberately materialises intermediate partitions as explicit
``(map_index, reduce_index) -> serialized bytes`` blobs: that is exactly
the unit BOINC-MR moves between clients, so the examples can report true
intermediate data volumes.
"""

from __future__ import annotations

import dataclasses
import pickle
import typing as _t

from .api import MapReduceApp
from .splitter import count_records, split_text


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


class LocalRunner:
    """Run a :class:`MapReduceApp` over real input on this machine."""

    def __init__(self, app: MapReduceApp, n_maps: int, n_reducers: int
                 ) -> None:
        """A runner for *app* with a fixed map/reduce task split."""
        if n_maps < 1 or n_reducers < 1:
            raise ValueError("n_maps and n_reducers must be >= 1")
        self.app = app
        self.n_maps = n_maps
        self.n_reducers = n_reducers

    # -- stages ---------------------------------------------------------------
    def run_map_task(self, map_index: int, chunk: bytes
                     ) -> tuple[TaskReport, dict[int, bytes]]:
        """One map task: ``app.map_chunk`` pairs -> partitioned blobs.

        ``partition()`` is called once per distinct key, and each
        partition keeps its pairs in the order ``map_chunk`` returns
        them.  A blob is the partition's pairs, stably sorted by key
        ``repr``, pickled.  Keys must be hashable (the reduce side groups
        them in a dict too), and keys that compare equal are one key,
        partitioned as the first seen.
        """
        partition = self.app.partition
        n_reducers = self.n_reducers
        partitions: dict[int, list] = {r: [] for r in range(n_reducers)}
        part_of: dict = {}
        emitted = 0
        for k2, v2 in self.app.map_chunk(chunk):
            r = part_of.get(k2)
            if r is None:
                r = part_of[k2] = partition(k2, n_reducers)
            partitions[r].append((k2, v2))
            emitted += 1
        blobs = {
            r: pickle.dumps(sorted(pairs, key=_stable_key))
            for r, pairs in partitions.items()
        }
        report = TaskReport(
            kind="map", index=map_index, records_in=count_records(chunk),
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

    # -- whole job ---------------------------------------------------------------
    def run(self, data: bytes) -> JobReport:
        """Execute the full job on *data*; returns merged output + reports."""
        tasks: list[TaskReport] = []
        all_blobs: dict[tuple[int, int], bytes] = {}
        for i, chunk in enumerate(split_text(data, self.n_maps)):
            report, blobs = self.run_map_task(i, chunk)
            tasks.append(report)
            for r, blob in blobs.items():
                all_blobs[(i, r)] = blob

        output: dict = {}
        for r in range(self.n_reducers):
            blobs = [all_blobs[(i, r)] for i in range(self.n_maps)]
            report, part_out = self.run_reduce_task(r, blobs)
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
