"""Stitch flat trace records into hierarchical span timelines.

The paper's headline artefacts are *timelines*: Table I makespans and the
Fig. 4 backoff-straggler pathology only make sense when you can see each
result's download → compute → upload → report-wait phases laid out over
simulated time next to the server daemons' activity.  The models already
emit flat :class:`~repro.sim.trace.TraceRecord` rows; a :class:`SpanBuilder`
registered as a live ``Tracer.tap()`` folds them into:

- one **result span** per assignment (``sched.assign`` → ``sched.report``)
  on the executing host's track, with child phase spans;
- one **RPC span** per scheduler round-trip (``client.rpc_start`` →
  ``client.rpc_done``) on the host's track;
- **instant events** for backoffs and every server-daemon action on the
  daemon's own track.

Spans still open at end-of-run (a task assigned but never reported — the
churn/straggler signature) are closed by :meth:`SpanBuilder.finish` and
flagged ``leaked`` so the run summary can report them instead of silently
losing them.

An observed idle fleet is almost all no-work polls, so the builder stores
the two records it sees most as plain tuples: an RPC span as ``(start,
end, track, work_req, n_assignments, no_work)`` and an instant as
``(time, track, name, category, rec)``, where ``rec`` is the trace row
itself, whose fields are the instant's args.  Result and fault spans stay
:class:`Span` objects.  ``spans`` and ``instants`` build their
:class:`Span` / :class:`Instant` objects when read.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..sim import TraceRecord, Tracer

#: Track name for per-host timelines.
HOST_TRACK = "host"
#: Track names for the server-side daemons, in display order.
DAEMON_TRACKS = ("scheduler", "feeder", "transitioner", "validator",
                 "assimilator", "jobtracker", "dataserver", "faults")

#: Trace kinds routed to each daemon track (prefix match on ``kind.``).
_DAEMON_PREFIXES: dict[str, str] = {
    "sched": "scheduler",
    "transitioner": "transitioner",
    "validator": "validator",
    "assimilator": "assimilator",
    "jobtracker": "jobtracker",
    "server": "dataserver",
    "dataserver": "dataserver",
    "flow": "dataserver",
    "fault": "faults",
}


@dataclasses.dataclass(slots=True)
class Span:
    """A closed (or force-closed) interval on one track."""

    name: str
    track: str
    start: float
    end: float
    category: str = "task"
    args: dict[str, _t.Any] = dataclasses.field(default_factory=dict)
    children: list["Span"] = dataclasses.field(default_factory=list)
    leaked: bool = False

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start


@dataclasses.dataclass(slots=True)
class Instant:
    """A zero-duration marker on one track."""

    name: str
    track: str
    time: float
    category: str = "event"
    args: dict[str, _t.Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(slots=True)
class _ResultState:
    """Per-result accumulation between ``sched.assign`` and ``sched.report``."""

    result_id: int
    host: str
    assigned_at: float
    job: str | None = None
    kind: str | None = None
    index: int | None = None
    download_start: float | None = None
    compute_start: float | None = None
    runtime: float | None = None
    ready_at: float | None = None


class SpanBuilder:
    """Live trace observer that assembles the span timeline.

    Attach with ``SpanBuilder(tracer)`` (registers itself as a tap) before
    the run starts; afterwards call :meth:`finish` once, then read
    ``spans``, ``instants``, and ``leaked``.
    """

    def __init__(self, tracer: Tracer) -> None:
        """Subscribe to *tracer* and start assembling spans."""
        self.tracer = tracer
        #: Closed spans in closing order: a :class:`Span` for a result or a
        #: fault, a ``(start, end, track, work_req, n_assignments,
        #: no_work)`` tuple for an RPC round-trip.
        self._spans: list[Span | tuple] = []
        #: Instants in arrival order, ``(time, track, name, category,
        #: rec)``; the trace row *rec* carries the instant's args.
        self._instants: list[tuple] = []
        #: Spans still open at end-of-run, force-closed by :meth:`finish`.
        self.leaked: list[Span] = []
        #: Open result spans, in opening order (assigned, not yet reported).
        self._results: dict[int, _ResultState] = {}
        self._rpc_open: dict[str, tuple[float, float]] = {}  # host -> (t, work_req)
        self._fault_open: dict[_t.Any, TraceRecord] = {}  # fault id -> begin rec
        #: Track names by host and by record kind (``None``: no track), so
        #: every record on one track shares one string.
        self._host_tracks: dict[_t.Any, str] = {}
        self._kind_tracks: dict[str, str | None] = {}
        self._finished = False
        tracer.tap(self._on_record)

    @property
    def spans(self) -> list[Span]:
        """Every closed span, in the order it closed."""
        return [Span(name="sched-rpc", track=s[2], start=s[0], end=s[1],
                     category="rpc", args={"work_req": s[3],
                                           "n_assignments": s[4],
                                           "no_work": s[5]})
                if type(s) is tuple else s
                for s in self._spans]

    @property
    def instants(self) -> list[Instant]:
        """Every instant, in the order its record arrived."""
        return [Instant(name=name, track=track, time=time, category=category,
                        args=rec.fields)
                for time, track, name, category, rec in self._instants]

    # -- tap ------------------------------------------------------------------
    def _on_record(self, rec: TraceRecord) -> None:
        handler = self._HANDLERS.get(rec.kind)
        if handler is not None:
            handler(self, rec)
        else:
            self._generic_instant(rec)

    def _host_track(self, host: _t.Any) -> str:
        track = self._host_tracks.get(host)
        if track is None:
            track = self._host_tracks[host] = f"{HOST_TRACK}:{host}"
        return track

    def _generic_instant(self, rec: TraceRecord) -> None:
        kind = rec.kind
        try:
            track = self._kind_tracks[kind]
        except KeyError:
            daemon = _DAEMON_PREFIXES.get(kind.split(".", 1)[0])
            track = self._kind_tracks[kind] = (
                None if daemon is None else f"daemon:{daemon}")
        if track is None:
            return  # unknown substrate kind; not part of the timeline
        self._instants.append((rec.time, track, kind, "event", rec))

    # -- per-result span machinery -------------------------------------------
    def _on_assign(self, rec: TraceRecord) -> None:
        rid = rec["result"]
        self._results[rid] = _ResultState(
            result_id=rid, host=rec["host"], assigned_at=rec.time,
            job=rec.get("job"), kind=rec.get("kind"), index=rec.get("index"))
        self._generic_instant(rec)

    def _on_download_start(self, rec: TraceRecord) -> None:
        st = self._results.get(rec["result"])
        if st is not None:
            st.download_start = rec.time

    def _on_compute_start(self, rec: TraceRecord) -> None:
        st = self._results.get(rec["result"])
        if st is not None:
            st.compute_start = rec.time
            st.runtime = rec.get("runtime")

    def _on_ready(self, rec: TraceRecord) -> None:
        st = self._results.get(rec["result"])
        if st is not None:
            st.ready_at = rec.time

    def _on_report(self, rec: TraceRecord) -> None:
        rid = rec["result"]
        st = self._results.pop(rid, None)
        if st is None:
            return  # reported without a traced assignment (partial trace)
        self._spans.append(self._build_result_span(
            st, end=rec.time, success=bool(rec.get("success", True))))
        self._generic_instant(rec)

    def _on_failed(self, rec: TraceRecord) -> None:
        # The failure still flows through a later sched.report (which closes
        # the span with success=False); mark the moment it happened too.
        self._instants.append((rec.time, self._host_track(rec["host"]),
                               "task-failed", "error", rec))

    def _build_result_span(self, st: _ResultState, end: float,
                           success: bool, leaked: bool = False) -> Span:
        label = (f"result {st.result_id}" if st.job is None
                 else f"{st.job}/{st.kind}[{st.index}] r{st.result_id}")
        span = Span(
            name=label, track=f"{HOST_TRACK}:{st.host}",
            start=st.assigned_at, end=end, category="result",
            args={"result": st.result_id, "job": st.job, "kind": st.kind,
                  "index": st.index, "success": success},
            leaked=leaked)
        phases: list[tuple[str, float | None, float | None]] = []
        compute_end = (None if st.compute_start is None or st.runtime is None
                       else st.compute_start + st.runtime)
        phases.append(("download", st.download_start, st.compute_start))
        phases.append(("compute", st.compute_start, compute_end))
        phases.append(("upload", compute_end, st.ready_at))
        phases.append(("report-wait", st.ready_at, end))
        for name, start, stop in phases:
            if start is None:
                continue
            stop = end if stop is None else min(stop, end)
            if stop < start:
                continue
            span.children.append(Span(
                name=name, track=span.track, start=start, end=stop,
                category="phase", args={"result": st.result_id},
                leaked=leaked))
        return span

    # -- RPC spans -------------------------------------------------------------
    def _on_rpc_start(self, rec: TraceRecord) -> None:
        self._rpc_open[rec["host"]] = (rec.time, rec.get("work_req", 0.0))

    def _on_rpc_done(self, rec: TraceRecord) -> None:
        host = rec["host"]
        opened = self._rpc_open.pop(host, None)
        if opened is None:
            return
        self._spans.append((opened[0], rec.time, self._host_track(host),
                            opened[1], rec.get("n_assignments", 0),
                            rec.get("no_work", False)))

    def _on_backoff(self, rec: TraceRecord) -> None:
        self._instants.append((
            rec.time, self._host_track(rec["host"]),
            f"backoff x{rec.get('count', '?')}", "backoff", rec))

    def _on_retry(self, rec: TraceRecord) -> None:
        """Client recovery actions (download/upload/RPC retries) — instants
        on the host track, so an injected outage on the faults track lines
        up visually with the retries it caused."""
        self._instants.append((
            rec.time, self._host_track(rec["host"]),
            rec.kind.split(".", 1)[1].replace("_", "-"), "retry", rec))

    def _on_timeout(self, rec: TraceRecord) -> None:
        """Deadline timeout: the server gave up on this result — close its
        span (the host will never report it; without this, every timed-out
        result shows up as a leak)."""
        rid = rec["result"]
        st = self._results.pop(rid, None)
        self._generic_instant(rec)
        if st is None:
            return
        span = self._build_result_span(st, end=rec.time, success=False)
        span.args["outcome"] = "deadline-timeout"
        self._spans.append(span)

    # -- fault spans ------------------------------------------------------------
    def _on_fault_begin(self, rec: TraceRecord) -> None:
        self._fault_open[rec.get("fault")] = rec

    def _on_fault_end(self, rec: TraceRecord) -> None:
        begin = self._fault_open.pop(rec.get("fault"), None)
        if begin is None:
            return
        self._spans.append(self._build_fault_span(begin, end=rec.time))

    def _build_fault_span(self, begin: TraceRecord, end: float,
                          leaked: bool = False) -> Span:
        target = begin.get("target")
        label = begin.get("kind", "fault")
        if target:
            label = f"{label}:{target}"
        return Span(name=f"fault:{label}", track="daemon:faults",
                    start=begin.time, end=end, category="fault",
                    args=begin.fields, leaked=leaked)

    _HANDLERS: dict[str, _t.Callable[["SpanBuilder", TraceRecord], None]] = {
        "sched.assign": _on_assign,
        "task.download_start": _on_download_start,
        "task.compute_start": _on_compute_start,
        "task.ready": _on_ready,
        "task.failed": _on_failed,
        "sched.report": _on_report,
        "transitioner.timeout": _on_timeout,
        "client.rpc_start": _on_rpc_start,
        "client.rpc_done": _on_rpc_done,
        "client.backoff": _on_backoff,
        "client.download_retry": _on_retry,
        "client.upload_retry": _on_retry,
        "client.rpc_failed": _on_retry,
        "fault.begin": _on_fault_begin,
        "fault.end": _on_fault_end,
    }

    # -- end of run -------------------------------------------------------------
    def finish(self, now: float) -> list[Span]:
        """Close leaked spans at *now* and return them (idempotent)."""
        if self._finished:
            return self.leaked
        self._finished = True
        for st in self._results.values():
            # A span opened after *now* closes with zero length rather
            # than going backwards.
            span = self._build_result_span(
                st, end=max(st.assigned_at, now), success=False, leaked=True)
            self._spans.append(span)
            self.leaked.append(span)
        self._results.clear()
        for host, (start, work_req) in sorted(self._rpc_open.items()):
            span = Span(name="sched-rpc", track=self._host_track(host),
                        start=start, end=max(start, now), category="rpc",
                        args={"work_req": work_req}, leaked=True)
            self._spans.append(span)
            self.leaked.append(span)
        self._rpc_open.clear()
        # Faults still active at end-of-run (plan outlasted the job).
        for _fid, begin in sorted(self._fault_open.items(),
                                  key=lambda kv: str(kv[0])):
            span = self._build_fault_span(begin, end=max(begin.time, now),
                                          leaked=True)
            self._spans.append(span)
            self.leaked.append(span)
        self._fault_open.clear()
        return self.leaked

    @property
    def open_count(self) -> int:
        """Result spans currently open (assigned, not yet reported)."""
        return len(self._results)

    def open_result_ids(self) -> list[int]:
        """Result ids with an open span (for auditor cross-checks)."""
        return sorted(self._results)

    def tracks(self) -> list[str]:
        """Every track referenced, hosts first then daemons, sorted."""
        seen = {s[2] if type(s) is tuple else s.track for s in self._spans}
        seen.update([i[1] for i in self._instants])
        hosts = sorted(t for t in seen if t.startswith(f"{HOST_TRACK}:"))
        daemons = [f"daemon:{d}" for d in DAEMON_TRACKS
                   if f"daemon:{d}" in seen]
        return hosts + daemons
