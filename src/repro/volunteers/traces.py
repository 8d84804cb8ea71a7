"""Availability traces: replaying recorded volunteer uptime patterns.

Desktop-grid research commonly drives simulations from availability
traces (e.g. the Failure Trace Archive's SETI@home and Notre Dame
collections) rather than analytic ON/OFF models.  This module provides:

- :class:`AvailabilityTrace` — an explicit list of ``[start, end)``
  availability intervals for one host, validated on construction;
- :func:`diurnal_trace` — a synthetic weekday/evening pattern generator
  (volunteer machines are famously available outside office hours).

:meth:`AvailabilityTrace.periods` yields the ON/OFF lengths that
:meth:`~repro.volunteers.availability.ChurnController.manage` takes (the
README's churn example hands it one): the deterministic counterpart of
drawing them from an
:class:`~repro.volunteers.availability.AvailabilityModel`, which is what
the paper grid's ``churn`` study does.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np


@dataclasses.dataclass(frozen=True, slots=True)
class AvailabilityTrace:
    """Sorted, non-overlapping ``[start, end)`` intervals of availability."""

    host: str
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev_end = -float("inf")
        for start, end in self.intervals:
            if end <= start:
                raise ValueError(
                    f"trace {self.host}: empty interval [{start}, {end})")
            if start < prev_end:
                raise ValueError(
                    f"trace {self.host}: overlapping/unsorted at {start}")
            prev_end = end

    def periods(self, now: float = 0.0) -> _t.Iterator[float]:
        """Alternating ON, OFF, ON, ... lengths from *now* on, for a host
        that is online at *now*: a trace that says otherwise opens with a
        zero ON, back-to-back intervals are one ON, and the last ON ends
        the sequence (the trace knows of no return)."""
        t = on_until = now
        for start, end in self.intervals:
            if end <= t:
                continue
            start = max(start, t)
            if start > on_until:
                yield on_until - t
                yield start - on_until
                t = start
            on_until = end
        yield on_until - t


def diurnal_trace(host: str, days: int, *,
                  rng: np.random.Generator,
                  jitter_h: float = 1.0) -> AvailabilityTrace:
    """A home-PC availability pattern: evenings on weekdays, long weekends.

    Weekdays are on from 18:00 for 5 hours, weekends from 09:00 to
    23:00.  Deterministic under *rng*; start times and session lengths
    are jittered by up to ``jitter_h`` hours.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    hour = 3600.0
    intervals: list[tuple[float, float]] = []
    for day in range(days):
        day_start = day * 24 * hour
        if day % 7 in (5, 6):  # weekend
            start = day_start + (9.0 + rng.uniform(0, jitter_h)) * hour
            end = day_start + (23.0 - rng.uniform(0, jitter_h)) * hour
        else:
            start = day_start + (18.0
                                 + rng.uniform(-jitter_h, jitter_h)) * hour
            end = start + (5.0 + rng.uniform(-jitter_h, jitter_h)) * hour
        if end > start:
            intervals.append((start, end))
    return AvailabilityTrace(host=host, intervals=tuple(intervals))
