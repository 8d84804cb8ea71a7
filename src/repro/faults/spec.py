"""Declarative fault specifications.

A :class:`FaultSpec` names one fault to inject at a point in simulated
time: *what* (``kind``), *when* (``at``), *for how long* (``duration``),
*where* (``target``), plus kind-specific ``params``.  Specs are plain
data — validation happens here, application happens in
:mod:`repro.faults.injector` — so chaos plans can live in TOML files and
ship with the repo.

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

#: Every fault kind the injector knows how to apply.
FAULT_KINDS: frozenset[str] = frozenset({
    # network substrate
    "link_flap",          # target host drops off the network, then returns
    "bandwidth",          # scale target host's access-link capacity by `factor`
    "partition",          # isolate `isolate` random clients (or `groups`)
    # data server
    "dataserver_outage",  # 503-style refusals on every download/upload
    "dataserver_slow",    # per-transfer rate capped to `factor` of capacity
    "transfer_corrupt",   # served payloads fail checksum with prob `rate`
    # peers
    "peer_corrupt",       # target host serves corrupt map outputs
    # project server
    "daemon_stall",       # `daemon` skips its passes (hung query)
    "server_crash",       # scheduler + daemons + data server down, then restart
    # volunteers
    "straggler",          # target host computes `factor`x slower
    "byzantine",          # target host corrupts every result digest
})

#: Keys lifted out of a plan-file row into FaultSpec fields; everything
#: else lands in ``params``.
_FIELD_KEYS = ("kind", "at", "duration", "target")


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
