"""Structured trace recording and metric aggregation.

Every substrate emits :class:`TraceRecord` rows through a shared
:class:`Tracer` (``kind`` + free-form fields).  The analysis layer then
computes the paper's metrics — per-phase makespans, per-task intervals,
backoff-induced delays — from the trace instead of from ad-hoc counters
inside the models, which keeps the models honest and the metrics testable.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t


@dataclasses.dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace row: timestamp, event kind, and arbitrary fields."""

    time: float
    kind: str
    fields: _t.Mapping[str, _t.Any]

    def __getitem__(self, key: str) -> _t.Any:
        return self.fields[key]

    def get(self, key: str, default: _t.Any = None) -> _t.Any:
        """Field lookup with a default, dict-style."""
        return self.fields.get(key, default)


class Tracer:
    """Collects trace records; supports filtering and per-kind counters.

    Tracing can be restricted with *keep* (a predicate on kind) to bound
    memory in very long runs; counters are maintained regardless.
    """

    def __init__(self, keep: _t.Callable[[str], bool] | None = None) -> None:
        """An empty tracer; *keep* filters which kinds are stored."""
        self.records: list[TraceRecord] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self._keep = keep
        self._taps: list[_t.Callable[[TraceRecord], None]] = []
        #: Per-kind index over kept records: select(kind) is O(matches),
        #: not O(all records) — the analysis layer queries per kind a lot.
        self._by_kind: dict[str, list[TraceRecord]] = {}

    def record(self, time: float, kind: str, /, **fields: _t.Any) -> None:
        """Append a record at simulated *time* under *kind*.

        The first two parameters are positional-only so ``fields`` may
        itself contain a ``kind`` key (e.g. a workunit's map/reduce kind).

        Taps run after the record is stored, in registration order; an
        exception from a tap propagates to the emitter (observability
        bugs should be loud), skipping any later taps.
        """
        self.counts[kind] += 1
        rec = TraceRecord(time, kind, fields)
        if self._keep is None or self._keep(kind):
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
    def select(self, kind: str | None = None, /,
               **field_filters: _t.Any) -> list[TraceRecord]:
        """Records matching *kind* and with every given field equal.

        ``kind`` is positional-only so a field named "kind" can be
        filtered on (e.g. a workunit's map/reduce kind).
        """
        pool = self.records if kind is None else self._by_kind.get(kind, [])
        out = []
        for rec in pool:
            if any(rec.get(k, _MISSING) != v for k, v in field_filters.items()):
                continue
            out.append(rec)
        return out

    def first(self, kind: str, /, **field_filters: _t.Any) -> TraceRecord | None:
        """Earliest matching record, or None."""
        matches = self.select(kind, **field_filters)
        return matches[0] if matches else None

    def last(self, kind: str, /, **field_filters: _t.Any) -> TraceRecord | None:
        """Latest matching record, or None."""
        matches = self.select(kind, **field_filters)
        return matches[-1] if matches else None

    def times(self, kind: str, /, **field_filters: _t.Any) -> list[float]:
        """Timestamps of matching records, in order."""
        return [r.time for r in self.select(kind, **field_filters)]

    def __len__(self) -> int:
        return len(self.records)


_MISSING = object()

