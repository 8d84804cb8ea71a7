"""Structured trace recording and metric aggregation.

Every substrate emits :class:`TraceRecord` rows through a shared
:class:`Tracer` (``kind`` + free-form fields).  The analysis layer then
computes the paper's metrics — per-phase makespans, per-task intervals,
backoff-induced delays — from the trace instead of from ad-hoc counters
inside the models, which keeps the models honest and the metrics testable.
"""

from __future__ import annotations

import collections
import typing as _t


#: Every distinct field-name order a row has carried, mapped to itself, so
#: all rows with the same fields share one key tuple.
_KEYS: dict[tuple[str, ...], tuple[str, ...]] = {}


class TraceRecord:
    """One trace row: timestamp, event kind, and arbitrary fields.

    The fields are two tuples: ``keys``, the field names in the order
    they were given, shared by every row with the same names in that
    order, and ``values``, this row's values in the same order.  A run
    builds one row per emitted event, so a row holds no dict of its own;
    ``rec[key]`` and :meth:`get` look the name up in ``keys``, and
    :attr:`fields` builds a dict when read.  Treat a record as read-only.
    """

    __slots__ = ("time", "kind", "keys", "values")

    def __init__(self, time: float, kind: str, keys: tuple[str, ...],
                 values: tuple[_t.Any, ...]) -> None:
        """A row at simulated *time* of *kind* whose field *keys* carry
        *values*."""
        self.time = time
        self.kind = kind
        self.keys = keys
        self.values = values

    def __getitem__(self, key: str) -> _t.Any:
        try:
            return self.values[self.keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def get(self, key: str, default: _t.Any = None) -> _t.Any:
        """Field lookup with a default, dict-style."""
        try:
            return self.values[self.keys.index(key)]
        except ValueError:
            return default

    @property
    def fields(self) -> dict[str, _t.Any]:
        """A new dict of the fields, in the order they were given.

        Changing it changes nothing in the row."""
        return dict(zip(self.keys, self.values))


class Tracer:
    """Collects trace records; supports filtering and per-kind counters.

    Tracing can be restricted with *keep* (a predicate on kind) to bound
    memory in very long runs; counters are maintained regardless.
    """

    def __init__(self, keep: _t.Callable[[str], bool] | None = None) -> None:
        """An empty tracer; *keep* filters which kinds are stored."""
        self.records: list[TraceRecord] = []
        self._keep = keep
        self._taps: list[_t.Callable[[TraceRecord], None]] = []
        #: Per-kind index over kept records: select(kind) is O(matches),
        #: not O(all records) — the analysis layer queries per kind a lot.
        #: Its list lengths are the kept records' counts, so a record
        #: pays a counter only when *keep* drops it.
        self._by_kind: dict[str, list[TraceRecord]] = {}
        self._dropped: collections.Counter[str] = collections.Counter()

    @property
    def counts(self) -> collections.Counter[str]:
        """Records seen per kind, kept or dropped (a new counter)."""
        counts = self._dropped.copy()
        for kind, recs in self._by_kind.items():
            counts[kind] += len(recs)
        return counts

    def record(self, time: float, kind: str, /, **fields: _t.Any) -> None:
        """Append a record at simulated *time* under *kind*.

        The first two parameters are positional-only so ``fields`` may
        itself contain a ``kind`` key (e.g. a workunit's map/reduce kind).

        Taps run after the record is stored, in registration order; an
        exception from a tap propagates to the emitter (observability
        bugs should be loud), skipping any later taps.
        """
        kept = self._keep is None or self._keep(kind)
        if not kept:
            self._dropped[kind] += 1
            if not self._taps:
                return  # a row nobody stores or watches is only counted
        keys = tuple(fields)
        rec = TraceRecord(time, kind, _KEYS.setdefault(keys, keys),
                          (*fields.values(),))
        if kept:
            self.records.append(rec)
            try:
                self._by_kind[kind].append(rec)
            except KeyError:
                self._by_kind[kind] = [rec]
        if self._taps:
            for tap in self._taps:
                tap(rec)

    def tap(self, fn: _t.Callable[[TraceRecord], None]) -> None:
        """Register a live observer called for every record (kept or not)."""
        self._taps.append(fn)

    # -- queries -------------------------------------------------------------
    def select(self, kind: str, /,
               **field_filters: _t.Any) -> list[TraceRecord]:
        """Records matching *kind* and with every given field equal.

        ``kind`` is positional-only so a field named "kind" can be
        filtered on (e.g. a workunit's map/reduce kind).
        """
        out = []
        for rec in self._by_kind.get(kind, []):
            if any(rec.get(k, _MISSING) != v for k, v in field_filters.items()):
                continue
            out.append(rec)
        return out

    def times(self, kind: str, /, **field_filters: _t.Any) -> list[float]:
        """Timestamps of matching records, in order."""
        return [r.time for r in self.select(kind, **field_filters)]

    def __len__(self) -> int:
        return len(self.records)


_MISSING = object()

