"""Application cost models calibrated against the paper's Table I.

The simulator needs, for every task, (a) compute time on a reference host
and (b) intermediate/output data volumes.  For word count these are derived
from the paper's own numbers:

- Map: with the straggler discarded, map times cluster at ~360–400 s
  regardless of chunk size (25–100 MB), implying the measured interval is
  dominated by queue position and shared-server download time on top of a
  per-byte compute cost.  Working back from the 20-node / 20-map row
  (50 MB chunks, ~360 s including a ~80 s shared download) gives a
  word-count map throughput of ~0.6 MB/s on the pc3001-class hosts — slow,
  but consistent with the paper's app writing one output line per input
  word through the BOINC API.
- Reduce: each reducer consumes ~(input_size / n_reducers) bytes of map
  output (1 GB/5 = 200 MB in the 20-node rows) in ~340 s including an
  ~80 s download, giving ~1.2 MB/s reduce throughput (counting is cheaper
  than tokenising + emitting).
- Intermediate volume: word count emits "word 1" per input word, so map
  output ≈ input chunk size (ratio 1.0), split evenly over reducers by the
  hash-mod partitioner.  Final reduce output is the distinct-word counts,
  a small fraction of the input.

Absolute values are *calibration*, not ground truth — the benchmarks
assert relational shape, not these constants.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, slots=True)
class MapReduceCostModel:
    """Per-byte compute costs and data-volume ratios for one application."""

    #: Bytes/s a reference (flops=1.0) host maps.
    map_throughput: float
    #: Bytes/s a reference host reduces.
    reduce_throughput: float
    #: Map output bytes per input byte (total across partitions).
    intermediate_ratio: float
    #: Final output bytes per reducer, per byte of reduce input.
    final_output_ratio: float

    def __post_init__(self) -> None:
        for field in ("map_throughput", "reduce_throughput"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        for field in ("intermediate_ratio", "final_output_ratio"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")

    # -- per-task quantities -------------------------------------------------
    def map_flops(self, chunk_bytes: float) -> float:
        """Compute cost of one map task, in reference-host seconds."""
        return chunk_bytes / self.map_throughput

    def map_output_bytes(self, chunk_bytes: float, n_reducers: int) -> float:
        """Bytes of map output destined for *each* reducer partition."""
        if n_reducers < 1:
            raise ValueError("n_reducers must be >= 1")
        return chunk_bytes * self.intermediate_ratio / n_reducers

    def reduce_input_bytes(self, chunk_bytes: float, n_maps: int,
                           n_reducers: int) -> float:
        """Total bytes one reducer downloads (one partition per mapper)."""
        return self.map_output_bytes(chunk_bytes, n_reducers) * n_maps

    def reduce_flops(self, chunk_bytes: float, n_maps: int,
                     n_reducers: int) -> float:
        """Compute cost of one reduce task, in reference-host seconds."""
        return (self.reduce_input_bytes(chunk_bytes, n_maps, n_reducers)
                / self.reduce_throughput)

    def reduce_output_bytes(self, chunk_bytes: float, n_maps: int,
                            n_reducers: int) -> float:
        """Final output bytes of one reduce task."""
        return (self.reduce_input_bytes(chunk_bytes, n_maps, n_reducers)
                * self.final_output_ratio)


#: Word count, calibrated as described in the module docstring.
WORD_COUNT = MapReduceCostModel(
    map_throughput=0.6e6,
    reduce_throughput=1.2e6,
    intermediate_ratio=1.0,
    final_output_ratio=0.05,
)

#: Distributed grep: maps scan fast and emit only matching lines; the
#: reduce side is nearly free.  The ``apps`` study uses it to explore
#: "which scenarios are the most suited" (Section IV.B future work).
GREP = MapReduceCostModel(
    map_throughput=5e6,
    reduce_throughput=20e6,
    intermediate_ratio=0.01,
    final_output_ratio=1.0,
)

#: Inverted index: map emits (term, doc) postings comparable in volume to
#: the input; reduce sorts/merges them — both sides heavier than word count.
INVERTED_INDEX = MapReduceCostModel(
    map_throughput=0.3e6,
    reduce_throughput=0.4e6,
    intermediate_ratio=1.2,
    final_output_ratio=0.8,
)
