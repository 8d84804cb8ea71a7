"""Metric instruments and the registry that owns them.

Three instrument types, modelled on the BOINC server-status counters the
paper's platform exposes (and on the Prometheus vocabulary every later
perf PR will speak):

- :class:`Counter` — monotonically increasing totals (RPCs served, bytes
  moved, tasks validated);
- :class:`Gauge` — instantaneous levels (queue depths, in-flight flows,
  client task-state occupancy), either set explicitly or backed by a
  zero-argument callable sampled on demand;
- :class:`Histogram` — distributions, with fixed buckets for cheap
  export *and* streaming quantile estimates (the P² algorithm, constant
  memory) so a million-task run never stores a million observations.

The :class:`MetricsRegistry` hands out get-or-create instruments keyed by
name, and the :class:`Sampler` process snapshots every gauge on a sim-time
cadence into time series, which is how "transitioner backlog over the run"
becomes a plottable artefact rather than a final number.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)
#: Default streaming quantiles tracked by every histogram.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        """Create the counter at zero."""
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value:g}>"


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

    def add(self, amount: float) -> None:
        """Shift the level by *amount* (may be negative)."""
        self.set(self._value + amount)

    @property
    def value(self) -> float:
        """Current level — the callback's answer when callback-backed."""
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.name}={self.value:g}>"


class _P2Estimator:
    """Jain & Chlamtac's P² streaming quantile estimator (constant memory)."""

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "n")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.n = 0

    def observe(self, x: float) -> None:
        self.n += 1
        h = self._heights
        if len(h) < 5:
            h.append(x)
            h.sort()
            return
        # Written out marker by marker: this runs three times for every
        # histogram observation, on the live request path among others.
        p, want, inc = self._positions, self._desired, self._increments
        if x < h[1]:
            if x < h[0]:
                h[0] = x
            p[1] += 1.0
            p[2] += 1.0
            p[3] += 1.0
        elif x < h[2]:
            p[2] += 1.0
            p[3] += 1.0
        elif x < h[3]:
            p[3] += 1.0
        elif x >= h[4]:
            h[4] = x
        p[4] += 1.0
        want[0] += inc[0]
        want[1] += inc[1]
        want[2] += inc[2]
        want[3] += inc[3]
        want[4] += inc[4]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            pos = p[i]
            d = want[i] - pos
            prev, nxt = p[i - 1], p[i + 1]
            if d >= 1.0 and nxt - pos > 1.0:
                step = 1.0
            elif d <= -1.0 and prev - pos < -1.0:
                step = -1.0
            else:
                continue
            below, height, above = h[i - 1], h[i], h[i + 1]
            candidate = height + step / (nxt - prev) * (
                (pos - prev + step) * (above - height) / (nxt - pos)
                + (nxt - pos - step) * (height - below) / (pos - prev))
            if below < candidate < above:
                h[i] = candidate
            elif step > 0.0:  # parabolic estimate escaped; fall back to linear
                h[i] = height + step * (above - height) / (nxt - pos)
            else:
                h[i] = height + step * (below - height) / (prev - pos)
            p[i] = pos + step

    def estimate(self) -> float:
        if not self._heights:
            return math.nan
        if self.n < 5:
            # Exact small-sample quantile over the sorted buffer.
            idx = min(len(self._heights) - 1,
                      int(self.q * (len(self._heights) - 1) + 0.5))
            return self._heights[idx]
        return self._heights[2]


class Histogram:
    """Fixed-bucket distribution plus P² streaming quantile estimates."""

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "total",
                 "min", "max", "_estimators")

    def __init__(self, name: str, help: str = "",
                 buckets: _t.Sequence[float] = DEFAULT_BUCKETS,
                 quantiles: _t.Sequence[float] = DEFAULT_QUANTILES) -> None:
        """Create an empty histogram with the given bucket bounds."""
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = tuple(buckets)
        #: counts[i] observes values <= bounds[i]; the last slot is +inf.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._estimators = {q: _P2Estimator(q) for q in quantiles}

    def observe(self, value: float) -> None:
        """Record one observation into buckets and quantile estimators."""
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        for est in self._estimators.values():
            est.observe(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Streaming estimate of quantile *q* (must be tracked)."""
        return self._estimators[q].estimate()

    def quantiles(self) -> dict[float, float]:
        """All tracked quantile estimates, keyed by q."""
        return {q: est.estimate() for q, est in self._estimators.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


Instrument = _t.Union[Counter, Gauge, Histogram]


@dataclasses.dataclass(frozen=True, slots=True)
class Sample:
    """One gauge observation taken by the :class:`Sampler`."""

    time: float
    value: float


class MetricsRegistry:
    """Owns every instrument by name; get-or-create, type-checked."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        #: Gauge time series filled in by the :class:`Sampler`.
        self.series: dict[str, list[Sample]] = {}

    def _create(self, found: Instrument | None, cls: type,
                name: str, *args: _t.Any) -> _t.Any:
        """Slow path of the three getters: register ``cls(name, *args)``,
        or refuse when *found*, an instrument of another type, has the name."""
        if found is not None:
            raise TypeError(f"metric {name!r} is a {type(found).__name__}, "
                            f"not a {cls.__name__}")
        inst = self._instruments[name] = cls(name, *args)
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` called *name*."""
        inst = self._instruments.get(name)
        if isinstance(inst, Counter):
            return inst
        return self._create(inst, Counter, name, help)

    def gauge(self, name: str, help: str = "",
              fn: _t.Callable[[], float] | None = None) -> Gauge:
        """Get or create the :class:`Gauge` called *name*."""
        gauge = self._instruments.get(name)
        if not isinstance(gauge, Gauge):
            return self._create(gauge, Gauge, name, help, fn)
        if fn is not None and gauge._fn is None:
            gauge._fn = fn  # upgrade an explicit gauge to callback-backed
        return gauge

    def histogram(self, name: str, help: str = "",
                  buckets: _t.Sequence[float] = DEFAULT_BUCKETS,
                  quantiles: _t.Sequence[float] = DEFAULT_QUANTILES) -> Histogram:
        """Get or create the :class:`Histogram` called *name*."""
        inst = self._instruments.get(name)
        if isinstance(inst, Histogram):
            return inst
        return self._create(inst, Histogram, name, help, buckets, quantiles)

    # -- introspection -------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> Instrument | None:
        """The instrument called *name*, or None."""
        return self._instruments.get(name)

    def instruments(self) -> list[Instrument]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def sample_gauges(self, time: float) -> None:
        """Append every gauge's current value to its time series."""
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Gauge):
                self.series.setdefault(name, []).append(
                    Sample(time=time, value=inst.value))

    def snapshot(self) -> dict[str, _t.Any]:
        """JSON-ready dump of every instrument (and gauge series extents)."""
        out: dict[str, _t.Any] = {}
        for inst in self.instruments():
            if isinstance(inst, Counter):
                out[inst.name] = {"type": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                entry: dict[str, _t.Any] = {"type": "gauge", "value": inst.value}
                series = self.series.get(inst.name)
                if series:
                    values = [s.value for s in series]
                    entry["samples"] = len(series)
                    entry["series_max"] = max(values)
                    entry["series_mean"] = sum(values) / len(values)
                out[inst.name] = entry
            else:
                out[inst.name] = {
                    "type": "histogram",
                    "count": inst.count,
                    "mean": None if inst.count == 0 else inst.mean,
                    "min": None if inst.count == 0 else inst.min,
                    "max": None if inst.count == 0 else inst.max,
                    "quantiles": {
                        f"p{int(q * 100)}": (None if inst.count == 0 else v)
                        for q, v in inst.quantiles().items()
                    },
                    "buckets": dict(zip([*map(str, inst.bounds), "+inf"],
                                        inst.bucket_counts)),
                }
        return out

    def render(self) -> str:
        """Plain-text summary, one instrument per line, sorted by name."""
        lines = []
        for inst in self.instruments():
            if isinstance(inst, Counter):
                lines.append(f"{inst.name:44s} counter   {inst.value:12g}")
            elif isinstance(inst, Gauge):
                series = self.series.get(inst.name)
                peak = (f"  peak {max(s.value for s in series):g}"
                        if series else "")
                lines.append(f"{inst.name:44s} gauge     {inst.value:12g}{peak}")
            else:
                if inst.count == 0:
                    lines.append(f"{inst.name:44s} histogram        (empty)")
                else:
                    qs = " ".join(f"p{int(q * 100)}={v:.3g}"
                                  for q, v in sorted(inst.quantiles().items()))
                    lines.append(
                        f"{inst.name:44s} histogram n={inst.count:<7d} "
                        f"mean={inst.mean:.3g} {qs}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MetricsRegistry {len(self._instruments)} instruments>"


class Sampler:
    """Snapshots every gauge into ``registry.series`` on a sim-time cadence."""

    def __init__(self, sim: "Simulator", registry: MetricsRegistry,
                 period_s: float = 30.0) -> None:
        """Start the sampling process on *sim* with the given period."""
        if period_s <= 0:
            raise ValueError("sampler period must be positive")
        self.sim = sim
        self.registry = registry
        self.period_s = period_s
        self.samples_taken = 0
        self._proc = sim.process(self._run(), name="obs:sampler")

    def _run(self) -> _t.Generator:
        while True:
            self.registry.sample_gauges(self.sim.now)
            self.samples_taken += 1
            yield self.period_s

    def stop(self) -> None:
        """Interrupt the sampling process (idempotent)."""
        if self._proc.alive:
            self._proc.interrupt("sampler stopped")
