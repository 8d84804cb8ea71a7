"""Summary statistics helpers for experiment series.

Small, dependency-light descriptive statistics: percentiles and the
summary :mod:`repro.analysis.campaign` folds a group's seeds into.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t


@dataclasses.dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    p50: float
    p90: float
    minimum: float
    maximum: float
    #: Sample standard deviation (Bessel-corrected; 0.0 when n < 2).
    stddev: float = 0.0


def percentile(values: _t.Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi or ordered[lo] == ordered[hi]:
        # Equal endpoints: interpolation could only add float error
        # (subnormals underflow in the weighted sum).
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def summarise(values: _t.Sequence[float]) -> Summary:
    """Descriptive summary of a sample (raises on empty input)."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    mean = sum(values) / len(values)
    if len(values) > 1:
        stddev = math.sqrt(sum((v - mean) ** 2 for v in values)
                           / (len(values) - 1))
    else:
        stddev = 0.0
    return Summary(
        n=len(values),
        mean=mean,
        p50=percentile(values, 50),
        p90=percentile(values, 90),
        minimum=min(values),
        maximum=max(values),
        stddev=stddev,
    )
