"""Metric instruments and the registry that owns them.

Three instrument types, modelled on the BOINC server-status counters the
paper's platform exposes (and on the Prometheus vocabulary every later
perf PR will speak):

- :class:`Counter` — monotonically increasing totals (RPCs served, bytes
  moved, tasks validated);
- :class:`Gauge` — instantaneous levels (queue depths, in-flight flows,
  client task-state occupancy), either set explicitly or backed by a
  zero-argument callable sampled on demand;
- :class:`Histogram` — distributions as fixed bucket counts, so a
  million-task run never stores a million observations.

The :class:`MetricsRegistry` hands out get-or-create instruments keyed by
name and has one exposition, the Prometheus text format, for a run
summary and a ``GET /metrics`` scrape alike.  A gauge is read when
something asks for it (a summary, a scrape), so observing a run
schedules nothing on its simulated clock.
"""

from __future__ import annotations

import math
import re
import typing as _t

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")
    #: Counters carry no help text.
    help: _t.ClassVar[str] = ""

    def __init__(self, name: str) -> None:
        """Create the counter at zero."""
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """An instantaneous level: set explicitly, or backed by a callable."""

    __slots__ = ("name", "help", "_value", "_fn")

    def __init__(self, name: str, help: str = "",
                 fn: _t.Callable[[], float] | None = None) -> None:
        """Create the gauge; *fn*, when given, supplies the live value."""
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        """Overwrite the level (explicit gauges only)."""
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value = float(value)

    @property
    def value(self) -> float:
        """Current level — the callback's answer when callback-backed."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Fixed-bucket distribution: bucket counts, count and total, as in a
    Prometheus histogram."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")
    #: Histograms carry no help text.
    help: _t.ClassVar[str] = ""

    def __init__(self, name: str,
                 buckets: _t.Sequence[float] = DEFAULT_BUCKETS) -> None:
        """Create an empty histogram with the given bucket bounds."""
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.bounds = tuple(buckets)
        #: counts[i] observes values <= bounds[i]; the last slot is +inf.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1


Instrument = _t.Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Owns every instrument by name; get-or-create, type-checked."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def _register(self, found: Instrument | None,
                  inst: Instrument) -> _t.Any:
        """Slow path of the three getters: register *inst*, or refuse
        when *found*, an instrument of another type, has its name."""
        if found is not None:
            raise TypeError(f"metric {inst.name!r} is a "
                            f"{type(found).__name__}, not a "
                            f"{type(inst).__name__}")
        self._instruments[inst.name] = inst
        return inst

    def counter(self, name: str) -> Counter:
        """Get or create the :class:`Counter` called *name*."""
        inst = self._instruments.get(name)
        if isinstance(inst, Counter):
            return inst
        return self._register(inst, Counter(name))

    def gauge(self, name: str, help: str = "",
              fn: _t.Callable[[], float] | None = None) -> Gauge:
        """Get or create the :class:`Gauge` called *name*."""
        gauge = self._instruments.get(name)
        if not isinstance(gauge, Gauge):
            return self._register(gauge, Gauge(name, help, fn))
        if fn is not None and gauge._fn is None:
            gauge._fn = fn  # upgrade an explicit gauge to callback-backed
        return gauge

    def histogram(self, name: str,
                  buckets: _t.Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the :class:`Histogram` called *name*."""
        inst = self._instruments.get(name)
        if isinstance(inst, Histogram):
            return inst
        return self._register(inst, Histogram(name, buckets))

    # -- introspection -------------------------------------------------------
    def instruments(self) -> list[Instrument]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of every instrument,
        sorted by name: ``.`` and any other character a Prometheus name
        cannot hold become ``_``, a gauge with help text gets a
        ``# HELP`` line, and a histogram is its cumulative
        ``_bucket{le=...}`` counts, ``_sum`` and ``_count``."""
        lines = []
        for inst in self.instruments():
            name = _PROM_UNSAFE.sub("_", inst.name)
            if inst.help:
                text = inst.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {name} {text}")
            if isinstance(inst, Histogram):
                lines.append(f"# TYPE {name} histogram")
                cumulative = 0
                for bound, count in zip((*inst.bounds, math.inf),
                                        inst.bucket_counts):
                    cumulative += count
                    lines.append(f'{name}_bucket{{le="{_prom_number(bound)}"}}'
                                 f" {cumulative}")
                lines.append(f"{name}_sum {_prom_number(inst.total)}")
                lines.append(f"{name}_count {inst.count}")
            else:
                kind = "counter" if isinstance(inst, Counter) else "gauge"
                lines.append(f"# TYPE {name} {kind}")
                lines.append(f"{name} {_prom_number(inst.value)}")
        return "".join(line + "\n" for line in lines)


_PROM_UNSAFE = re.compile(r"[^A-Za-z0-9_:]")


def _prom_number(value: float) -> str:
    """*value* as a Prometheus sample value (``NaN``, ``+Inf``, ``-Inf``)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))

