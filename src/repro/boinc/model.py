"""BOINC data model: workunits, results, files, hosts.

Mirrors the relevant columns of BOINC's MySQL ``workunit`` and ``result``
tables (server release 6.11, the version the paper forked) closely enough
that the daemon logic reads like the original: the transitioner drives
workunit/result state transitions, the validator compares replicas and
picks a canonical result, the assimilator hands finished work to the
project.

A *workunit* (WU) is one unit of computation; BOINC replicates each WU into
``target_nresults`` *results* (the paper uses 2) and requires
``min_quorum`` identical outputs (the paper uses 2) to validate.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools


class WorkunitState(enum.Enum):
    """Lifecycle of a workunit."""

    ACTIVE = "active"            # results outstanding or more to create
    VALIDATED = "validated"      # canonical result chosen
    ASSIMILATED = "assimilated"  # project has consumed the canonical output
    ERROR = "error"              # too many failures; given up


class ResultState(enum.Enum):
    """Server-side view of one result (replica)."""

    UNSENT = "unsent"
    IN_PROGRESS = "in_progress"
    OVER = "over"                # reported, errored, or timed out


class ResultOutcome(enum.Enum):
    """Final disposition of an OVER result."""

    SUCCESS = "success"
    CLIENT_ERROR = "client_error"
    NO_REPLY = "no_reply"        # missed its deadline


class ValidateState(enum.Enum):
    """Validator verdict on a reported result (quorum agreement)."""

    INIT = "init"
    VALID = "valid"
    INVALID = "invalid"


@dataclasses.dataclass(frozen=True, slots=True)
class FileRef:
    """Reference to a named file of a known size (bytes)."""

    name: str
    size: float

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file {self.name!r} has negative size")


@dataclasses.dataclass(slots=True)
class OutputData:
    """What a finished task produced: content digest + payload sizes.

    ``digest`` stands in for the real output bytes during validation —
    two results "match" iff their digests are equal, which is exactly
    BOINC's bitwise-identity check when, as in the paper, homogeneous
    redundancy makes outputs deterministic.
    """

    digest: str
    files: tuple[FileRef, ...] = ()


@dataclasses.dataclass(slots=True)
class Workunit:
    """One unit of computation, replicated into results."""

    id: int
    app_name: str
    input_files: tuple[FileRef, ...]
    flops: float                       # work content, in device-flops
    target_nresults: int = 2
    min_quorum: int = 2
    max_error_results: int = 6
    max_total_results: int = 10
    #: MapReduce annotations (the paper's ``mapreduce`` template tag).
    mr_job: str | None = None
    mr_kind: str | None = None         # "map" | "reduce"
    mr_index: int | None = None        # map index or reduce partition
    state: WorkunitState = WorkunitState.ACTIVE
    canonical_result_id: int | None = None
    #: Set by the transitioner when reported results may satisfy the quorum.
    need_validate: bool = False
    #: Adaptive replication (BOINC's trusted-host optimisation): created
    #: with a single replica; ``adaptive_quorum`` is the quorum to escalate
    #: to when the reporting host is untrusted or spot-checked.
    adaptive: bool = False
    adaptive_quorum: int | None = None
    created_at: float = 0.0
    error_reason: str | None = None

    def __post_init__(self) -> None:
        if self.min_quorum < 1:
            raise ValueError("min_quorum must be >= 1")
        if self.target_nresults < self.min_quorum:
            raise ValueError("target_nresults must be >= min_quorum")
        if self.flops < 0:
            raise ValueError("flops must be >= 0")


@dataclasses.dataclass(slots=True)
class Result:
    """One replica of a workunit, as tracked by the server."""

    id: int
    wu_id: int
    name: str
    state: ResultState = ResultState.UNSENT
    outcome: ResultOutcome | None = None
    validate_state: ValidateState = ValidateState.INIT
    host_id: int | None = None
    sent_at: float | None = None
    deadline: float | None = None
    received_at: float | None = None   # output upload finished (server knows data)
    reported_at: float | None = None   # scheduler RPC reported completion
    output: OutputData | None = None
    elapsed_s: float | None = None

    @property
    def reported_success(self) -> bool:
        """True when the result came back and succeeded."""
        return (self.state is ResultState.OVER
                and self.outcome is ResultOutcome.SUCCESS)


@dataclasses.dataclass(slots=True)
class HostRecord:
    """Server-side record of a volunteer host."""

    id: int
    name: str
    flops: float                      # effective device speed
    supports_mr: bool = False         # BOINC-MR client?
    #: Reputation: how many of this host's results have validated.
    validated_count: int = 0


class Database:
    """In-memory stand-in for the BOINC project database.

    Pure data + queries; all mutation policy lives in the daemons, as in
    real BOINC.  Index structures are maintained eagerly so scheduler-path
    queries stay O(matches) rather than O(table).
    """

    def __init__(self) -> None:
        """An empty in-memory project database."""
        self.workunits: dict[int, Workunit] = {}
        self.results: dict[int, Result] = {}
        self.hosts: dict[int, HostRecord] = {}
        self._wu_ids = itertools.count(1)
        self._result_ids = itertools.count(1)
        self._host_ids = itertools.count(1)
        self._results_by_wu: dict[int, list[int]] = {}
        self._unsent: dict[int, None] = {}  # ordered set of result ids

    # -- inserts ---------------------------------------------------------------
    def insert_workunit(self, wu: Workunit) -> Workunit:
        """Insert a workunit whose id :meth:`new_wu_id` allocated."""
        if wu.id in self.workunits:
            raise ValueError(f"duplicate workunit id {wu.id}")
        self.workunits[wu.id] = wu
        self._results_by_wu.setdefault(wu.id, [])
        return wu

    def new_wu_id(self) -> int:
        """Allocate the next workunit id."""
        return next(self._wu_ids)

    def insert_result(self, wu: Workunit) -> Result:
        """Create one more replica of *wu* in UNSENT state."""
        rid = next(self._result_ids)
        seq = len(self._results_by_wu[wu.id])
        res = Result(id=rid, wu_id=wu.id, name=f"{wu.app_name}_{wu.id}_{seq}")
        self.results[rid] = res
        self._results_by_wu[wu.id].append(rid)
        self._unsent[rid] = None
        return res

    def insert_host(self, name: str, flops: float,
                    supports_mr: bool = False) -> HostRecord:
        """Create and index a host row."""
        hid = next(self._host_ids)
        rec = HostRecord(id=hid, name=name, flops=flops,
                         supports_mr=supports_mr)
        self.hosts[hid] = rec
        return rec

    # -- state transitions used by daemons --------------------------------------
    def mark_sent(self, res: Result, host: HostRecord, now: float,
                  deadline: float) -> None:
        """Transition an UNSENT result to IN_PROGRESS on *host*."""
        if res.state is not ResultState.UNSENT:
            raise ValueError(f"result {res.name} is not unsent")
        res.state = ResultState.IN_PROGRESS
        res.host_id = host.id
        res.sent_at = now
        res.deadline = deadline
        self._unsent.pop(res.id, None)

    # -- queries ------------------------------------------------------------------
    def results_for_wu(self, wu_id: int) -> list[Result]:
        """All result rows of one workunit."""
        return [self.results[rid] for rid in self._results_by_wu.get(wu_id, [])]

    def unsent_results(self) -> list[Result]:
        """UNSENT results in creation order (feeder scan order)."""
        return [self.results[rid] for rid in self._unsent]

    def hosts_with_result_of_wu(self, wu_id: int) -> set[int]:
        """Hosts that already hold (or held) a replica of this WU."""
        return {
            r.host_id for r in self.results_for_wu(wu_id) if r.host_id is not None
        }

    def in_progress_results(self) -> list[Result]:
        """Every result currently out on a host."""
        return [r for r in self.results.values() if r.state is ResultState.IN_PROGRESS]

    def counts(self) -> dict[str, int]:
        """Coarse table sizes, for diagnostics and tests."""
        return {
            "workunits": len(self.workunits),
            "results": len(self.results),
            "hosts": len(self.hosts),
            "unsent": len(self._unsent),
        }
