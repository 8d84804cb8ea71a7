"""Word count — the paper's proof-of-concept application (Section III.C).

"The map function reads an input file word by word and outputs one line
per word, with the format 'word 1' ... The reduce application reads one
line at a time, and increments the count for each unique word."

:meth:`WordCount.map` and :meth:`WordCount.combine` are that per-record
definition.  A map task runs :meth:`WordCount.map_chunk` instead, which
returns the same combined pairs from one ``Counter`` pass over the chunk.
"""

from __future__ import annotations

import collections
import typing as _t

from ..api import MapReduceApp


class WordCount(MapReduceApp):
    """Count occurrences of each whitespace-separated word."""

    name = "wordcount"

    def __init__(self, lowercase: bool = False) -> None:
        """Optionally fold words to lower case before counting."""
        self.lowercase = lowercase

    def map(self, key: int, value: bytes) -> _t.Iterator[tuple[bytes, int]]:
        """Emit (word, 1) per whitespace-separated token."""
        line = value.lower() if self.lowercase else value
        for word in line.split():
            yield word, 1

    def map_chunk(self, chunk: bytes) -> _t.Iterable[tuple[bytes, int]]:
        """Each distinct word of *chunk*, first seen first, with its count.

        Equals the default :meth:`MapReduceApp.map_chunk` over :meth:`map`
        and :meth:`combine`: the combiner sums, and ``bytes.split`` over
        the whole chunk splits on the per-line whitespace plus the ``\\n``
        that ends each line.  A subclass that changes either must
        override this too.
        """
        text = chunk.lower() if self.lowercase else chunk
        return collections.Counter(text.split()).items()

    def reduce(self, key: bytes, values: list[int]) -> _t.Iterator[int]:
        """Sum the per-word counts."""
        yield sum(values)

    # Summing is associative/commutative, so the combiner is the reducer —
    # the classic word-count optimisation (shrinks intermediate data).
    def combine(self, key: bytes, values: list[int]) -> _t.Iterator[int]:
        """Local pre-sum after each map task."""
        yield sum(values)
