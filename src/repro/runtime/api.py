"""The MapReduce programming API (what the paper defers to future work).

The paper's prototype hard-coded word count into the application; "a
'full-blown' MapReduce API" is listed as future work.  This module is that
API: users subclass :class:`MapReduceApp` and run it on the local engine (:mod:`repro.runtime.engine`)
for real results, or hand its cost profile to the simulator for
cluster-scale studies.

Semantics follow the Dean & Ghemawat model the paper builds on:

- ``map(key, value) -> iterable[(k2, v2)]``
- ``reduce(k2, values) -> iterable[v3]``
- optional ``combine`` (a local reduce after each map task)
- partitioning is ``hash(k2) mod n_reducers`` — exactly the paper's
  "each map output's key ... is hashed and the output file ... decided
  based on ... modulo the number of reducers".

A map task calls one method, ``map_chunk(chunk) -> iterable[(k2, v2)]``:
the pairs the task hands to partitioning.  With ``combine is None`` they
are every record's ``map`` output in emission order; otherwise each
distinct key in first-seen order, with the values ``combine(key, values)``
returns.  The default walks the chunk's records through ``map`` and
``combine``; an app may override it with a one-pass kernel that returns
the same pairs (word count counts the whole chunk in one ``Counter``).
"""

from __future__ import annotations

import typing as _t
import zlib

from .splitter import iter_records

K2 = _t.TypeVar("K2")
V2 = _t.TypeVar("V2")
V3 = _t.TypeVar("V3")

ReduceFn = _t.Callable[[K2, _t.List[V2]], _t.Iterable[V3]]


def default_partition(key: _t.Any, n_reducers: int) -> int:
    """Stable hash(key) mod n_reducers (stable across runs and processes).

    Python's builtin ``hash`` is salted per process for strings, which
    would make partition assignment nondeterministic — unacceptable for a
    system whose validator compares replica outputs bit for bit.  CRC32 of
    the repr is stable, cheap, and uniform enough.
    """
    if n_reducers < 1:
        raise ValueError("n_reducers must be >= 1")
    data = key if isinstance(key, bytes) else repr(key).encode("utf-8")
    return zlib.crc32(data) % n_reducers


class MapReduceApp:
    """Base class for MapReduce applications.

    Subclasses override :meth:`map` and :meth:`reduce`; :meth:`combine`
    defaults to None (no combiner).  A map task runs :meth:`map_chunk`.
    """

    #: Human-readable application name (used in file naming and traces).
    name: str = "app"

    def map(self, key: _t.Any, value: _t.Any) -> _t.Iterable[tuple[_t.Any, _t.Any]]:
        """Emit (k2, v2) pairs for one input record."""
        raise NotImplementedError

    def reduce(self, key: _t.Any, values: list) -> _t.Iterable[_t.Any]:
        """Fold all values of one key into output values."""
        raise NotImplementedError

    #: Optional combiner; when set, runs as a local reduce per map task.
    combine: ReduceFn | None = None

    def map_chunk(self, chunk: bytes) -> _t.Iterable[tuple[_t.Any, _t.Any]]:
        """The (k2, v2) pairs one map task over *chunk* hands to partitioning.

        Without a combiner, every record's :meth:`map` output in emission
        order.  With one, values are grouped by key as they are emitted
        and each distinct key, in first-seen order, yields the values
        ``combine(key, values)`` returns.  Keys must be hashable.
        """
        pairs = (pair for offset, record in iter_records(chunk)
                 for pair in self.map(offset, record))
        if self.combine is None:
            return pairs
        grouped: dict = {}
        for k2, v2 in pairs:
            values = grouped.get(k2)
            if values is None:
                grouped[k2] = [v2]
            else:
                values.append(v2)
        return [(key, v) for key, values in grouped.items()
                for v in self.combine(key, values)]

    def partition(self, key: _t.Any, n_reducers: int) -> int:
        """Reducer index for *key* (hash mod R by default)."""
        return default_partition(key, n_reducers)
