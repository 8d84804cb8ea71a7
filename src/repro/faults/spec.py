"""Declarative fault specifications.

A :class:`FaultSpec` names one fault to inject at a point in simulated
time: *what* (``kind``), *when* (``at``), *for how long* (``duration``),
*where* (``target``), plus kind-specific ``params``.  Specs are plain
data — validation happens here, every parameter of every kind checked
when the plan loads; application happens in :mod:`repro.faults.injector`
— so chaos plans can live in TOML files and ship with the repo.

The fault vocabulary covers the failure surface the paper's design
defends against but its evaluation deferred ("we did not consider node
failure in our tests"): flaky links, partitions, degraded or dead data
servers, corrupt transfers, stalled or crashed server daemons, straggler
hosts, and byzantine volunteers.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from ..boinc.server import DAEMON_PERIOD_S

#: Keys lifted out of a plan-file row into FaultSpec fields; everything
#: else lands in ``params``.
_FIELD_KEYS = ("kind", "at", "duration", "target")


def _number(value: _t.Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_POSITIVE = (lambda v: _number(v) and 0 < v < math.inf, "finite and > 0")
_SLOWDOWN = (lambda v: _number(v) and 1 <= v < math.inf, "finite and >= 1")
_FRACTION = (lambda v: _number(v) and 0 < v <= 1, "in (0, 1]")
_COUNT = (lambda v: _number(v) and isinstance(v, int) and v >= 1,
          "an integer >= 1")
_GROUPS = (lambda v: isinstance(v, list) and v != [], "a non-empty list")
_DAEMON = (lambda v: v in DAEMON_PERIOD_S, f"one of {sorted(DAEMON_PERIOD_S)}")
#: Every fault kind the injector knows how to apply, with the parameters
#: it takes: name -> (the test its value must pass, what the test asks).
#: A NaN fails every test: TOML has ``nan`` and ``inf``.
_PARAMS: dict[str, dict[str, tuple[_t.Callable[[_t.Any], bool], str]]] = {
    # network substrate
    "link_flap": {},  # target host drops off the network, then returns
    "bandwidth": {"factor": _POSITIVE},  # access links scaled by `factor`
    "partition": {"isolate": _COUNT,  # cut `isolate` random clients off,
                  "groups": _GROUPS},  # or the `groups`
    # data server
    "dataserver_outage": {},  # 503-style refusals on every download/upload
    "dataserver_slow": {"factor": _POSITIVE},  # rate capped to `factor`
    "transfer_corrupt": {"rate": _FRACTION},  # payloads fail with `rate`
    # peers
    "peer_corrupt": {},  # target host serves corrupt map outputs
    # project server
    "daemon_stall": {"daemon": _DAEMON},  # `daemon` skips its passes
    "server_crash": {},  # scheduler + daemons + data server down, restart
    # volunteers
    "straggler": {"factor": _SLOWDOWN},  # target computes `factor`x slower
    "byzantine": {},  # target host corrupts every result digest
}
FAULT_KINDS: frozenset[str] = frozenset(_PARAMS)


@dataclasses.dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault: kind, schedule, target, and kind-specific parameters.

    ``target`` selects hosts for per-host kinds: an exact client name,
    ``"random"`` (one seeded pick), ``"random:N"`` (N distinct picks), or
    ``"all"``.  Kinds acting on a singleton (the data server, the project
    server) ignore it.
    """

    kind: str
    at: float
    duration: float
    target: str = ""
    params: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}")
        # Written so a NaN fails too: TOML has ``nan`` and ``inf``.
        if not 0 <= self.at < math.inf:
            raise ValueError(
                f"fault time must be finite and >= 0, got {self.at}")
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"fault duration must be finite and positive, "
                f"got {self.duration}")
        takes = _PARAMS[self.kind]
        for name, value in self.params.items():
            if name not in takes:
                raise ValueError(
                    f"fault {self.kind!r} takes no parameter {name!r}"
                    + (f"; it takes {sorted(takes)}" if takes else ""))
            test, wanted = takes[name]
            if not test(value):
                raise ValueError(f"fault {self.kind!r} {name} must be "
                                 f"{wanted}, got {value!r}")
        count = self.target.removeprefix("random:")
        if count != self.target and not (count.isdigit() and int(count) >= 1):
            raise ValueError(f"fault target {self.target!r}: random:N "
                             f"needs an integer N >= 1")

    @classmethod
    def from_dict(cls, row: _t.Mapping[str, _t.Any]) -> "FaultSpec":
        """Build a spec from one plan-file table (``[[fault]]`` row)."""
        if "kind" not in row:
            raise ValueError(f"fault row missing 'kind': {dict(row)!r}")
        params = {k: v for k, v in row.items() if k not in _FIELD_KEYS}
        return cls(kind=str(row["kind"]),
                   at=float(row.get("at", 0.0)),
                   duration=float(row.get("duration", 60.0)),
                   target=str(row.get("target", "")),
                   params=params)
