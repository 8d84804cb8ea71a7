"""Match count: how often each regex match occurs in the input.

A grep that returns small summaries: the map emits (match, 1) per hit,
a combiner pre-sums each map task's hits and the reduce totals them, so
the intermediate data is tiny next to word count's.  The gateway serves
it as ``matchcount`` (counting the words that end in ``a``).
"""

from __future__ import annotations

import re
import typing as _t

from ..api import MapReduceApp


class MatchCount(MapReduceApp):
    """Count matches per captured pattern (the Bloom-filter-ish variant
    discussed in the paper's related work: return small summaries, rerun
    interesting hits locally)."""

    name = "matchcount"

    def __init__(self, pattern: bytes) -> None:
        """Compile the search *pattern*."""
        self.regex = re.compile(pattern)

    def map(self, key: int, value: bytes) -> _t.Iterator[tuple[bytes, int]]:
        """Emit (match, 1) per regex hit in the line."""
        for match in self.regex.finditer(value):
            yield match.group(0), 1

    def reduce(self, key: bytes, values: list[int]) -> _t.Iterator[int]:
        """Total hits for this match text."""
        yield sum(values)

    def combine(self, key: bytes, values: list[int]) -> _t.Iterator[int]:
        """Local pre-sum after each map task."""
        yield sum(values)
