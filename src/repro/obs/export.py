"""Exporters: Chrome trace-event JSON (Perfetto), JSONL, and run summaries.

The Chrome trace-event format is the lingua franca of timeline viewers —
``chrome://tracing`` and https://ui.perfetto.dev both load it directly.
We emit one *process* for the volunteer hosts and one for the project
server, with one *thread* (track) per host and per server daemon, complete
("X") events for spans, and instant ("i") events for daemon actions and
backoffs.  Timestamps are simulated microseconds, so a run's trace is a
pure function of its seed: byte-identical across repeats, which the golden
determinism test asserts.

The Chrome document is written event by event, straight from the span
builder's tuples, in exactly the bytes ``json.dumps(doc, sort_keys=True)``
gives for the one-dict-per-event document (``tests/obs/reference_export.py``
keeps that exporter as the oracle); :func:`write_chrome_trace` streams the
same pieces to a file without building the whole string.
"""

from __future__ import annotations

import json
import operator
import typing as _t
from json.encoder import encode_basestring_ascii

from ..sim import Tracer
from .metrics import MetricsRegistry
from .spans import DAEMON_TRACKS, HOST_TRACK, Span, SpanBuilder

if _t.TYPE_CHECKING:  # pragma: no cover
    from .probes import SelfProfiler

#: Synthetic pids for the two Chrome trace processes.
_HOSTS_PID = 1
_SERVER_PID = 2

#: ``json`` turns a value into one of these scalars (anything else becomes
#: its ``repr`` string) before it writes it.
_JSON_SCALARS = (int, float, str, bool, type(None))

#: What ``json.dumps(doc, sort_keys=True)`` writes around the event list.
_HEAD = ('{"displayTimeUnit": "ms", "metadata": {"clock": '
         '"simulated-microseconds", "format": "repro.obs chrome trace"}, '
         '"traceEvents": [')
_TAIL = "]}"
_PROCESSES = (
    '{"args": {"name": "volunteer hosts"}, "name": "process_name", '
    f'"ph": "M", "pid": {_HOSTS_PID}}}, '
    '{"args": {"name": "project server"}, "name": "process_name", '
    f'"ph": "M", "pid": {_SERVER_PID}}}')


def _float(x: float) -> str:
    """*x* as ``json`` writes a float (``NaN`` / ``Infinity`` included)."""
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


#: How ``json`` writes a value of each exact scalar type.
_FORMATS: dict[type, _t.Callable[[_t.Any], str]] = {
    str: encode_basestring_ascii,
    float: _float,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json_safe(v: _t.Any) -> _t.Any:
    """*v* as ``json`` may write it: a scalar as it is, anything else as
    its ``repr`` string."""
    return v if isinstance(v, _JSON_SCALARS) else repr(v)


def _scalar_json(v: _t.Any) -> str:
    """A value of no type in :data:`_FORMATS` as ``json.dumps`` writes it
    after :func:`_json_safe`: a scalar subclass (an ``IntEnum``) as its
    base type, anything else as its ``repr`` string."""
    return json.dumps(_json_safe(v))


def _value(v: _t.Any) -> str:
    """One args value as ``json.dumps`` writes it after :func:`_json_safe`."""
    return _FORMATS.get(type(v), _scalar_json)(v)


def _args_encoder() -> _t.Callable[[tuple[str, ...], tuple[_t.Any, ...]],
                                   str]:
    """A function writing the args named *keys* with *values* as
    ``json.dumps`` writes their dict, made safe, with ``sort_keys=True``:
    through a ``%`` template built once per key tuple (a trace row's is
    shared by every row with the same fields)."""
    templates: dict[tuple[str, ...], tuple[tuple[int, ...], str]] = {}

    def encode(keys: tuple[str, ...], values: tuple[_t.Any, ...]) -> str:
        try:
            order, text = templates[keys]
        except KeyError:
            order, text = templates[keys] = _args_template(keys)
        return text % tuple(map(_value, map(values.__getitem__, order)))

    return encode


def _args_template(keys: tuple[str, ...]) -> tuple[tuple[int, ...], str]:
    """The positions of *keys* in sorted key order and the ``%`` template
    their values fill.  Trace fields are keyword arguments, so every key
    is a string and none repeats."""
    order = tuple(sorted(range(len(keys)), key=keys.__getitem__))
    text = ", ".join(encode_basestring_ascii(keys[i]).replace("%", "%%")
                     + ": %s" for i in order)
    return order, "{" + text + "}"


def _chrome_fragments(builder: SpanBuilder) -> _t.Iterator[str]:
    """The Chrome trace document of *builder*'s timeline, one event per
    piece (each formatted once)."""
    # Hosts in name order, then the daemons at their fixed ids: tracks()
    # is already in (pid, tid) order.
    tracks = builder.tracks()
    ids: dict[str, tuple[int, int]] = {}
    for tid, track in enumerate(
            (t for t in tracks if t.startswith(f"{HOST_TRACK}:")), start=1):
        ids[track] = (_HOSTS_PID, tid)
    for tid, daemon in enumerate(DAEMON_TRACKS, start=1):
        if f"daemon:{daemon}" in tracks:
            ids[f"daemon:{daemon}"] = (_SERVER_PID, tid)
    yield _HEAD
    yield _PROCESSES
    # Each track's keys after "name" in an "X" / an "i" event, up to "ts".
    span_at: dict[str, str] = {}
    instant_at: dict[str, str] = {}
    for track, (pid, tid) in ids.items():
        label = encode_basestring_ascii(track.split(":", 1)[1])
        yield (f', {{"args": {{"name": {label}}}, "name": "thread_name", '
               f'"ph": "M", "pid": {pid}, "tid": {tid}}}')
        span_at[track] = f'"ph": "X", "pid": {pid}, "tid": {tid}, "ts": '
        instant_at[track] = (f'"ph": "i", "pid": {pid}, "s": "t", '
                             f'"tid": {tid}, "ts": ')

    args_json = _args_encoder()

    def span_events(span: Span) -> _t.Iterator[str]:
        args = span.args
        if span.leaked:
            args = {**args, "leaked": True}
        text = args_json(tuple(args), tuple(args.values()))
        yield (f', {{"args": {text}, '
               f'"cat": {encode_basestring_ascii(span.category)}, '
               f'"dur": {_float((span.end - span.start) * 1e6)}, '
               f'"name": {encode_basestring_ascii(span.name)}, '
               f'{span_at[span.track]}{_float(span.start * 1e6)}}}')
        for child in span.children:
            yield from span_events(child)

    for span in sorted(builder._spans, key=_span_order):
        if type(span) is tuple:  # an RPC round-trip
            start, end, track, work_req, n_assignments, no_work = span
            yield (f', {{"args": {{"n_assignments": {_value(n_assignments)}, '
                   f'"no_work": {_value(no_work)}, '
                   f'"work_req": {_value(work_req)}}}, "cat": "rpc", '
                   f'"dur": {_float((end - start) * 1e6)}, '
                   f'"name": "sched-rpc", {span_at[track]}'
                   f'{_float(start * 1e6)}}}')
        else:
            yield from span_events(span)
    for time, track, name, category, rec in sorted(
            builder._instants, key=_instant_order):
        yield (f', {{"args": {args_json(rec.keys, rec.values)}, '
               f'"cat": {encode_basestring_ascii(category)}, '
               f'"name": {encode_basestring_ascii(name)}, '
               f'{instant_at[track]}{_float(time * 1e6)}}}')
    yield _TAIL


def _span_order(span: Span | tuple) -> tuple:
    if type(span) is tuple:
        return (span[0], span[2], "sched-rpc")
    return (span.start, span.track, span.name)


#: Instants sort by (time, track, name); ties keep arrival order.
_instant_order = operator.itemgetter(0, 1, 2)


def chrome_trace_json(builder: SpanBuilder) -> str:
    """Serialise the timeline as a Chrome trace-event JSON document."""
    return "".join(_chrome_fragments(builder))


def write_chrome_trace(builder: SpanBuilder, path: str) -> None:
    """Write the builder's timeline to *path* as a Chrome trace-event file,
    piece by piece (the same bytes :func:`chrome_trace_json` returns)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chrome_fragments(builder))


def trace_to_jsonl(tracer: Tracer) -> str:
    """One JSON object per trace record — greppable, pandas-loadable."""
    lines = []
    for rec in tracer.records:
        row: dict[str, _t.Any] = {"time": rec.time, "kind": rec.kind}
        for key, value in zip(rec.keys, rec.values):
            # A payload field may shadow record metadata (e.g. sched.assign
            # carries kind="map"); keep both under distinct keys.
            row[f"field.{key}" if key in row else key] = _json_safe(value)
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


#: Rows :func:`run_summary` lists of the busiest record kinds and of the
#: leaked spans.
_SUMMARY_ROWS = 10


def run_summary(tracer: Tracer, metrics: MetricsRegistry,
                builder: SpanBuilder | None = None,
                profiler: "SelfProfiler | None" = None) -> str:
    """Plain-text end-of-run report: traffic, metrics, leaks, hot spots."""
    lines: list[str] = ["== run summary =="]
    total = sum(tracer.counts.values())
    lines.append(f"trace records: {len(tracer.records)} kept / {total} seen")
    busiest = sorted(tracer.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for kind, count in busiest[:_SUMMARY_ROWS]:
        lines.append(f"  {kind:40s} {count:8d}")
    if builder is not None:
        lines.append(f"spans: {len(builder.spans)} closed, "
                     f"{len(builder.instants)} instants, "
                     f"{len(builder.leaked)} leaked")
        for span in builder.leaked[:_SUMMARY_ROWS]:
            lines.append(f"  LEAKED {span.name} on {span.track} "
                         f"open {span.duration:.1f}s")
    lines.append("-- metrics --")
    lines.append(metrics.render())
    if profiler is not None:
        lines.append("-- engine self-profile (wall-clock dispatch time) --")
        lines.append(profiler.render())
    return "\n".join(lines)
