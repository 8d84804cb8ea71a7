"""Availability traces: replaying recorded volunteer uptime patterns.

Desktop-grid research commonly drives simulations from availability
traces (e.g. the Failure Trace Archive's SETI@home and Notre Dame
collections) rather than analytic ON/OFF models.  This module provides:

- :class:`AvailabilityTrace` — an explicit list of ``[start, end)``
  availability intervals for one host, with validation and queries;
- :func:`diurnal_trace` — a synthetic weekday/evening pattern generator
  (volunteer machines are famously available outside office hours).

:meth:`AvailabilityTrace.periods` is what
:class:`~repro.volunteers.availability.ChurnController` replays: the
deterministic counterpart of drawing from an
:class:`~repro.volunteers.availability.AvailabilityModel`.
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

    def available_at(self, t: float) -> bool:
        """True when some ON interval covers time *t*."""
        return any(start <= t < end for start, end in self.intervals)

    @property
    def total_available(self) -> float:
        """Summed ON time across all intervals."""
        return sum(end - start for start, end in self.intervals)

    def availability_fraction(self, horizon: float) -> float:
        """Fraction of [0, horizon) covered by availability."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        covered = sum(max(0.0, min(end, horizon) - min(start, horizon))
                      for start, end in self.intervals)
        return covered / horizon

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
                  evening_start_h: float = 18.0,
                  evening_len_h: float = 5.0,
                  weekend_all_day: bool = True,
                  jitter_h: float = 1.0) -> AvailabilityTrace:
    """A home-PC availability pattern: evenings on weekdays, long weekends.

    Deterministic under *rng*; start times and session lengths are
    jittered by up to ``jitter_h`` hours.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    hour = 3600.0
    intervals: list[tuple[float, float]] = []
    for day in range(days):
        day_start = day * 24 * hour
        weekend = day % 7 in (5, 6)
        if weekend and weekend_all_day:
            start = day_start + (9.0 + rng.uniform(0, jitter_h)) * hour
            end = day_start + (23.0 - rng.uniform(0, jitter_h)) * hour
        else:
            start = day_start + (evening_start_h
                                 + rng.uniform(-jitter_h, jitter_h)) * hour
            end = start + (evening_len_h
                           + rng.uniform(-jitter_h, jitter_h)) * hour
        if end > start:
            intervals.append((start, end))
    return AvailabilityTrace(host=host, intervals=tuple(intervals))
