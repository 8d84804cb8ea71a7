"""Test oracle: the span builder and Chrome exporter ``repro.obs`` shipped
before it stored spans as tuples, kept verbatim.

``SpanBuilder`` here stores one :class:`~repro.obs.spans.Span` (with an
args dict and a children list) per RPC round-trip and one
:class:`~repro.obs.spans.Instant` (with a copy of the record's fields) per
instant; ``chrome_trace_events`` turns them into one dict per event and
``chrome_trace_json`` hands the whole document to ``json.dumps(...,
sort_keys=True)``.  The product stores RPC spans and instants as tuples
and formats each event straight to its JSON text; fed the same records it
must build equal ``spans`` / ``instants`` / ``leaked`` / ``tracks()`` and a
byte-identical ``chrome_trace_json`` (``test_export_differential.py``).

The span and instant types, the track names and the per-result state are
the product's, so both builders' spans compare equal field by field.
"""

from __future__ import annotations

import json
import typing as _t

from repro.obs.spans import (
    _DAEMON_PREFIXES,
    DAEMON_TRACKS,
    HOST_TRACK,
    Instant,
    Span,
    _ResultState,
)
from repro.sim import TraceRecord, Tracer


class SpanBuilder:
    """Live trace observer that assembles the span timeline.

    Attach with ``SpanBuilder(tracer)`` (registers itself as a tap) before
    the run starts; afterwards call :meth:`finish` once, then read
    ``spans``, ``instants``, and ``leaked``.
    """

    def __init__(self, tracer: Tracer) -> None:
        """Subscribe to *tracer* and start assembling spans."""
        self.tracer = tracer
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        #: Result spans force-closed at end-of-run (assigned, never reported).
        self.leaked: list[Span] = []
        #: Open result spans, in opening order (assigned, not yet reported).
        self._results: dict[int, _ResultState] = {}
        self._rpc_open: dict[str, tuple[float, float]] = {}  # host -> (t, work_req)
        self._fault_open: dict[_t.Any, TraceRecord] = {}  # fault id -> begin rec
        self._finished = False
        tracer.tap(self._on_record)

    # -- tap ------------------------------------------------------------------
    def _on_record(self, rec: TraceRecord) -> None:
        handler = self._HANDLERS.get(rec.kind)
        if handler is not None:
            handler(self, rec)
        else:
            self._generic_instant(rec)

    def _generic_instant(self, rec: TraceRecord) -> None:
        track = _DAEMON_PREFIXES.get(rec.kind.split(".", 1)[0])
        if track is None:
            return  # unknown substrate kind; not part of the timeline
        self.instants.append(Instant(
            name=rec.kind, track=f"daemon:{track}", time=rec.time,
            args=dict(rec.fields)))

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
        self.spans.append(self._build_result_span(
            st, end=rec.time, success=bool(rec.get("success", True))))
        self._generic_instant(rec)

    def _on_failed(self, rec: TraceRecord) -> None:
        # The failure still flows through a later sched.report (which closes
        # the span with success=False); mark the moment it happened too.
        self.instants.append(Instant(
            name="task-failed", track=f"{HOST_TRACK}:{rec['host']}",
            time=rec.time, category="error", args=dict(rec.fields)))

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
        start, work_req = opened
        self.spans.append(Span(
            name="sched-rpc", track=f"{HOST_TRACK}:{host}", start=start,
            end=rec.time, category="rpc",
            args={"work_req": work_req,
                  "n_assignments": rec.get("n_assignments", 0),
                  "no_work": rec.get("no_work", False)}))

    def _on_backoff(self, rec: TraceRecord) -> None:
        self.instants.append(Instant(
            name=f"backoff x{rec.get('count', '?')}",
            track=f"{HOST_TRACK}:{rec['host']}", time=rec.time,
            category="backoff", args=dict(rec.fields)))

    def _on_retry(self, rec: TraceRecord) -> None:
        """Client recovery actions (download/upload/RPC retries) — instants
        on the host track, so an injected outage on the faults track lines
        up visually with the retries it caused."""
        self.instants.append(Instant(
            name=rec.kind.split(".", 1)[1].replace("_", "-"),
            track=f"{HOST_TRACK}:{rec['host']}", time=rec.time,
            category="retry", args=dict(rec.fields)))

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
        self.spans.append(span)

    # -- fault spans ------------------------------------------------------------
    def _on_fault_begin(self, rec: TraceRecord) -> None:
        self._fault_open[rec.get("fault")] = rec

    def _on_fault_end(self, rec: TraceRecord) -> None:
        begin = self._fault_open.pop(rec.get("fault"), None)
        if begin is None:
            return
        self.spans.append(self._build_fault_span(begin, end=rec.time))

    def _build_fault_span(self, begin: TraceRecord, end: float,
                          leaked: bool = False) -> Span:
        target = begin.get("target")
        label = begin.get("kind", "fault")
        if target:
            label = f"{label}:{target}"
        return Span(name=f"fault:{label}", track="daemon:faults",
                    start=begin.time, end=end, category="fault",
                    args=dict(begin.fields), leaked=leaked)

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
            self.spans.append(span)
            self.leaked.append(span)
        self._results.clear()
        for host, (start, work_req) in sorted(self._rpc_open.items()):
            span = Span(name="sched-rpc", track=f"{HOST_TRACK}:{host}",
                        start=start, end=max(start, now), category="rpc",
                        args={"work_req": work_req}, leaked=True)
            self.spans.append(span)
            self.leaked.append(span)
        self._rpc_open.clear()
        # Faults still active at end-of-run (plan outlasted the job).
        for _fid, begin in sorted(self._fault_open.items(),
                                  key=lambda kv: str(kv[0])):
            span = self._build_fault_span(begin, end=max(begin.time, now),
                                          leaked=True)
            self.spans.append(span)
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
        seen = {s.track for s in self.spans} | {i.track for i in self.instants}
        hosts = sorted(t for t in seen if t.startswith(f"{HOST_TRACK}:"))
        daemons = [f"daemon:{d}" for d in DAEMON_TRACKS
                   if f"daemon:{d}" in seen]
        return hosts + daemons


# -- export --------------------------------------------------------------------

#: Synthetic pids for the two Chrome trace processes.
_HOSTS_PID = 1
_SERVER_PID = 2


def _track_ids(builder: SpanBuilder) -> dict[str, tuple[int, int]]:
    """Map track name -> (pid, tid), hosts then daemons, deterministic."""
    out: dict[str, tuple[int, int]] = {}
    tid = 1
    for track in builder.tracks():
        if track.startswith(f"{HOST_TRACK}:"):
            out[track] = (_HOSTS_PID, tid)
            tid += 1
    for i, daemon in enumerate(DAEMON_TRACKS, start=1):
        track = f"daemon:{daemon}"
        if track in builder.tracks():
            out[track] = (_SERVER_PID, i)
    return out


def _json_safe(args: _t.Mapping[str, _t.Any]) -> dict[str, _t.Any]:
    return {k: (v if isinstance(v, (int, float, str, bool, type(None)))
                else repr(v))
            for k, v in args.items()}


def chrome_trace_events(builder: SpanBuilder) -> list[dict]:
    """The ``traceEvents`` list for *builder*'s timeline."""
    ids = _track_ids(builder)
    events: list[dict] = [
        {"ph": "M", "pid": _HOSTS_PID, "name": "process_name",
         "args": {"name": "volunteer hosts"}},
        {"ph": "M", "pid": _SERVER_PID, "name": "process_name",
         "args": {"name": "project server"}},
    ]
    for track, (pid, tid) in sorted(ids.items(), key=lambda kv: kv[1]):
        label = track.split(":", 1)[1]
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name", "args": {"name": label}})

    def emit_span(span: Span) -> None:
        pid, tid = ids[span.track]
        args = _json_safe(span.args)
        if span.leaked:
            args["leaked"] = True
        events.append({
            "ph": "X", "pid": pid, "tid": tid, "cat": span.category,
            "name": span.name, "ts": span.start * 1e6,
            "dur": span.duration * 1e6, "args": args,
        })
        for child in span.children:
            emit_span(child)

    for span in sorted(builder.spans, key=_span_order):
        emit_span(span)
    for inst in sorted(builder.instants, key=_instant_order):
        pid, tid = ids[inst.track]
        events.append({
            "ph": "i", "pid": pid, "tid": tid, "cat": inst.category,
            "name": inst.name, "ts": inst.time * 1e6, "s": "t",
            "args": _json_safe(inst.args),
        })
    return events


def _span_order(span: Span) -> tuple:
    return (span.start, span.track, span.name)


def _instant_order(inst: Instant) -> tuple:
    return (inst.time, inst.track, inst.name)


def chrome_trace_json(builder: SpanBuilder, indent: int | None = None) -> str:
    """Serialise the timeline as a Chrome trace-event JSON document."""
    doc = {
        "traceEvents": chrome_trace_events(builder),
        "displayTimeUnit": "ms",
        "metadata": {"format": "repro.obs chrome trace",
                     "clock": "simulated-microseconds"},
    }
    return json.dumps(doc, indent=indent, sort_keys=True)
