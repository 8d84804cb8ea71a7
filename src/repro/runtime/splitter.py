"""Input splitting: one 1 GB file into ``n_maps`` chunks (Section IV.A).

The paper fixes the initial input at 1 GB and splits it into as many
chunks as there are map workunits.  For text inputs the split must land on
line boundaries or words would be torn across mappers; :func:`split_text`
implements the same boundary-snapping strategy Hadoop's TextInputFormat
uses (a chunk extends to the end of the line that crosses its nominal
boundary).
"""

from __future__ import annotations

import typing as _t


def split_text(data: bytes, n_chunks: int) -> list[bytes]:
    """Split text into *n_chunks*, snapping boundaries to line ends.

    Every byte of *data* lands in exactly one chunk, chunk order preserves
    input order, and no chunk starts mid-record.  Chunks may be empty when
    records are much larger than the nominal chunk size.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    n = len(data)
    chunks: list[bytes] = []
    start = 0
    for i in range(1, n_chunks):
        nominal = n * i // n_chunks
        if nominal <= start:
            chunks.append(b"")
            continue
        cut = data.find(b"\n", nominal - 1)
        cut = n if cut == -1 else cut + 1
        cut = max(cut, start)
        chunks.append(data[start:cut])
        start = cut
    chunks.append(data[start:])
    return chunks


def iter_records(chunk: bytes) -> _t.Iterator[tuple[int, bytes]]:
    """Yield (offset, line) pairs from a chunk (lines exclude the ``\\n``)."""
    pos = 0
    n = len(chunk)
    while pos < n:
        cut = chunk.find(b"\n", pos)
        if cut == -1:
            yield pos, chunk[pos:]
            return
        yield pos, chunk[pos:cut]
        pos = cut + 1


def count_records(chunk: bytes) -> int:
    """How many records :func:`iter_records` yields from *chunk*.

    One per ``\\n``, plus one for a non-empty last line without one.
    """
    tail = 1 if chunk and not chunk.endswith(b"\n") else 0
    return chunk.count(b"\n") + tail
