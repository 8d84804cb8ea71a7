"""Per-layer spans recorded from the benchmark's side of the API.

Nothing under ``src/`` is edited.  A :class:`SpanRecorder` gets its
timings from two places:

- ``Simulator.dispatch_hook`` — every dispatched callback arrives with
  its elapsed host time and is charged to a layer by the process-name
  prefix of the owning :class:`repro.sim.Process`, or else by the
  module of the owning object;
- wrappers swapped in around a layer's entry points for the length of
  the timed region (:meth:`SpanRecorder.wrap`), removed afterwards.

A span's *self* time is its duration minus the time its child spans
cover, so the layer buckets partition the traced wall-clock time: what
no callback covers is the event kernel (heap, pruning, run loop).
"""

from __future__ import annotations

import collections
import json
import threading
import time
import typing as _t

#: Process-name prefix (``"rpc:host007"`` -> ``"rpc"``) -> layer bucket.
PROCESS_BUCKETS = {
    "client": "boinc.client_s",
    "rpc": "boinc.rpc_s",
    "download": "boinc.transfer_s",
    "upload": "boinc.transfer_s",
    "fetch": "boinc.transfer_s",
    "feeder": "boinc.daemons_s",
    "transitioner": "boinc.daemons_s",
    "validator": "boinc.daemons_s",
    "assimilator": "boinc.daemons_s",
    "peerdl": "core.peerdl_s",
    "task": "core.task_s",
    "obs": "obs.metric_s",
}

#: Owning-module prefix -> layer bucket, for callbacks that are not
#: process resumptions (first match wins).
MODULE_BUCKETS = (
    ("repro.sim", "sim.glue_s"),
    ("repro.net", "net.alloc_s"),
    ("repro.boinc.dataserver", "boinc.transfer_s"),
    ("repro.boinc", "boinc.daemons_s"),
    ("repro.core", "core.task_s"),
    ("repro.obs", "obs.metric_s"),
)

#: Bucket for callbacks no rule above claims; the self-check keeps it small.
OTHER = "other_s"

_now = time.perf_counter


class SpanRecorder:
    """In-memory span stack: self time per layer, call counts, span list."""

    def __init__(self) -> None:
        """An idle recorder; :meth:`wrap` and :meth:`attach` arm it."""
        #: Layer bucket -> self seconds.
        self.self_s: dict[str, float] = collections.defaultdict(float)
        #: Layer bucket -> calls (wrapped functions) or callbacks (hook).
        self.calls: collections.Counter[str] = collections.Counter()
        #: ``[bucket, start, end, thread id, parent bucket]`` rows.
        self.spans: list[list] = []
        #: Process resumptions seen by the dispatch hook.
        self.process_resumes = 0
        #: Total host seconds inside dispatched callbacks.
        self.callback_s = 0.0
        self._local = threading.local()
        self._patched: list[tuple[_t.Any, str, _t.Any]] = []
        self._bucket_cache: dict[str, str] = {}
        self._process_type: type | None = None

    # -- span stack ------------------------------------------------------------
    def _stack(self) -> list:
        """This thread's stack of ``[bucket, child seconds]`` frames.

        Frame 0 is a root that collects the time of wrapped calls made
        directly from a dispatched callback; the dispatch hook drains it.
        """
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [[None, 0.0]]
            return self._local.stack

    def wrap(self, owner: _t.Any, attr: str, bucket: str, *,
             span: bool = True,
             observe: _t.Callable[[tuple, _t.Any, float], None] | None = None,
             only_thread: str | None = None) -> None:
        """Time ``owner.attr`` under *bucket* until :meth:`unwrap_all`.

        *span* False keeps totals only (for functions called 10^5 times);
        *observe* ``(args, result, seconds)`` runs after each call;
        *only_thread* limits recording to the thread of that name.
        """
        orig = getattr(owner, attr)

        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            if (only_thread is not None
                    and threading.current_thread().name != only_thread):
                return orig(*args, **kwargs)
            stack = self._stack()
            frame = [bucket, 0.0]
            stack.append(frame)
            t0 = _now()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - t0
                self.self_s[bucket] += dur - frame[1]
                self.calls[bucket] += 1
                stack[-1][1] += dur
                if span:
                    self.spans.append([bucket, t0, end, threading.get_ident(),
                                      stack[-1][0]])
            if observe is not None:
                observe(args, result, dur)
            return result

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- simulator dispatch hook -------------------------------------------------
    def attach(self, sim: _t.Any) -> None:
        """Install the dispatch hook on *sim* (a ``repro.sim.Simulator``)."""
        from repro.sim import Process

        self._process_type = Process
        self._stack()[0][1] = 0.0
        sim.dispatch_hook = self._on_dispatch

    def _classify(self, fn: _t.Callable) -> str:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, self._process_type):
            self.process_resumes += 1
            return PROCESS_BUCKETS.get(owner.name.split(":", 1)[0], OTHER)
        module = (type(owner).__module__ if owner is not None
                  else getattr(fn, "__module__", ""))
        bucket = self._bucket_cache.get(module)
        if bucket is None:
            bucket = self._bucket_cache[module] = next(
                (b for prefix, b in MODULE_BUCKETS
                 if module.startswith(prefix)), OTHER)
        return bucket

    def _on_dispatch(self, fn: _t.Callable, args: tuple,
                     elapsed: float) -> None:
        end = _now()
        bucket = self._classify(fn)
        root = self._local.stack[0]
        self.self_s[bucket] += elapsed - root[1]
        root[1] = 0.0
        self.calls[bucket] += 1
        self.callback_s += elapsed
        spans = self.spans
        # Consecutive callbacks of one layer fold into one span: the
        # timeline keeps every layer boundary without a row per event.
        if spans and spans[-1][0] == bucket and spans[-1][4] == "dispatch":
            spans[-1][2] = end
        else:
            spans.append([bucket, end - elapsed, end,
                          threading.get_ident(), "dispatch"])

    # -- export ------------------------------------------------------------------
    def write_chrome_trace(self, path: str, t0: float) -> int:
        """Write the spans as Chrome trace-event JSON; returns the count."""
        events = [{"name": bucket, "ph": "X", "pid": 1, "tid": tid,
                   "ts": round((start - t0) * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3),
                   "args": {"parent": parent}}
                  for bucket, start, end, tid, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "metadata": {"clock": "host-microseconds"}}, fh)
        return len(events)
