"""Test oracle: the single-heap event kernel ``repro.sim.engine`` shipped
through PR 21, kept verbatim.

Every pending callback, timers and same-instant wake-ups alike, is one
``(time, priority, seq, fn, args, handle)`` entry in one binary heap, and
``run()`` calls ``step()`` per event.  The product kernel keeps timers in
that heap and same-instant normal-priority callbacks in a FIFO beside it;
it must dispatch in exactly the order this one does — the total order
``(time, priority, seq)`` — and agree on ``now``, ``dispatch_count``,
``peak_pending``, ``pending()`` and ``peek()`` after every step
(``test_engine_differential.py``).

Only the callback-level API is kept: the ``event`` / ``timeout`` /
``process`` factories build ``repro.sim.events`` objects, which append to
the product kernel's FIFO directly and so cannot run on this class;
``run(until_event=…)`` reads nothing but ``.triggered``.

One addition since: ``at_instant_end``, in its plainest form.  Before and
after every ``step()``, and at the top of every ``run()`` iteration, the
registered callbacks run one by one while the heap holds nothing due at
``now``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
import typing as _t


#: Scheduling priority for ordinary callbacks.
PRIORITY_NORMAL = 0
#: Runs before normal callbacks at the same timestamp (used by the network
#: model to retract stale flow-completion events before new ones fire).
PRIORITY_HIGH = -1
#: Runs after normal callbacks at the same timestamp.
PRIORITY_LOW = 1


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling into the past)."""


#: Cancelled-entry count below which heap compaction is never attempted
#: (compacting tiny heaps would cost more than the memory it reclaims).
_COMPACT_MIN = 512


class TimerHandle:
    """Cancellation token returned by :meth:`Simulator.schedule_cancellable`.

    Cancellation is lazy: the queue entry stays in the heap but is skipped
    (without advancing the clock or the dispatch count) when it reaches the
    front.  This keeps cancellation O(1), which the incremental flow
    allocator relies on to retract superseded completion timers cheaply.
    When cancelled entries pile up the owning simulator compacts the heap
    (see :meth:`Simulator._note_cancel`), so they can never dominate heap
    memory at scale.
    """

    __slots__ = ("_sim", "active")

    def __init__(self, sim: "Simulator") -> None:
        """Handle for a scheduled callback (internal; see Simulator.call_at)."""
        self._sim = sim
        #: True while the callback is still due to run.
        self.active = True

    def cancel(self) -> bool:
        """Retract the callback; returns False if already cancelled/fired."""
        if not self.active:
            return False
        self.active = False
        self._sim._note_cancel()
        return True


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, print, "five seconds in")
        sim.run(until=10.0)

    Model code normally does not call :meth:`schedule` directly but spawns
    processes via :meth:`process` and creates events via :meth:`event` /
    :meth:`timeout`.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        """An empty simulator whose clock starts at *start_time*."""
        self._now = float(start_time)
        self._queue: list[tuple[float, int, int, _t.Callable[..., None], tuple,
                                TimerHandle | None]] = []
        self._at_end: list[_t.Callable[[], None]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: Entries in the heap whose TimerHandle was cancelled (lazy deletion).
        self._cancelled = 0
        #: Number of callbacks executed so far (diagnostic).
        self.dispatch_count = 0
        #: High-water mark of live scheduled callbacks (diagnostic; the
        #: scale benchmarks report it as "peak queue depth").
        self.peak_pending = 0
        #: Optional observer ``(fn, args, wall_seconds)`` called after every
        #: dispatched callback — the hook behind the engine self-profiler
        #: (:class:`repro.obs.probes.SelfProfiler`).  Leave ``None`` to keep
        #: :meth:`step` on its timer-free fast path.
        self.dispatch_hook: _t.Callable[
            [_t.Callable[..., None], tuple, float], None] | None = None

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------
    def schedule(self, delay: float, fn: _t.Callable[..., None], *args: _t.Any,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Run ``fn(*args)`` *delay* seconds from now."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule {delay!r} seconds into the past")
        heapq.heappush(
            self._queue,
            (self._now + delay, priority, next(self._seq), fn, args, None),
        )
        live = len(self._queue) - self._cancelled
        if live > self.peak_pending:
            self.peak_pending = live

    def schedule_cancellable(self, delay: float, fn: _t.Callable[..., None],
                             *args: _t.Any,
                             priority: int = PRIORITY_NORMAL) -> TimerHandle:
        """Like :meth:`schedule`, but returns a :class:`TimerHandle`.

        Calling ``handle.cancel()`` retracts the callback in O(1); a
        cancelled entry is skipped silently when it surfaces in the heap.
        """
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule {delay!r} seconds into the past")
        handle = TimerHandle(self)
        heapq.heappush(
            self._queue,
            (self._now + delay, priority, next(self._seq), fn, args, handle),
        )
        live = len(self._queue) - self._cancelled
        if live > self.peak_pending:
            self.peak_pending = live
        return handle

    def at(self, when: float, fn: _t.Callable[..., None], *args: _t.Any,
           priority: int = PRIORITY_NORMAL) -> None:
        """Run ``fn(*args)`` at absolute simulated time *when*."""
        self.schedule(when - self._now, fn, *args, priority=priority)

    def call_soon(self, fn: _t.Callable[..., None], *args: _t.Any) -> None:
        """Run ``fn(*args)`` at the current instant, after pending callbacks."""
        self.schedule(0.0, fn, *args)

    def at_instant_end(self, fn: _t.Callable[[], None]) -> None:
        """Run ``fn()`` once, before the clock next advances."""
        self._at_end.append(fn)

    # -- execution -------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Account a lazy cancellation; compact the heap when they pile up.

        Cancelled entries are normally skipped when they surface
        (:meth:`_prune`), but a workload that cancels far more timers than
        it fires — e.g. the incremental allocator retracting superseded
        completion timers under heavy churn — would otherwise let dead
        entries dominate heap memory.  Once more than half the heap is
        cancelled (and past :data:`_COMPACT_MIN`), the live entries are
        reheapified.  Compaction preserves the dispatch order exactly:
        entry keys are unique, so a heap over any subset pops in the same
        relative order.
        """
        self._cancelled += 1
        if (self._cancelled > _COMPACT_MIN
                and self._cancelled * 2 > len(self._queue)):
            self._queue = [entry for entry in self._queue
                           if entry[5] is None or entry[5].active]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def _prune(self) -> None:
        """Drop cancelled entries from the front of the heap."""
        queue = self._queue
        while queue:
            handle = queue[0][5]
            if handle is None or handle.active:
                return
            heapq.heappop(queue)
            self._cancelled -= 1

    def _end_instant(self) -> bool:
        """Run ``at_instant_end`` callbacks while nothing is due at ``now``;
        True when one of them called ``stop()``."""
        while self._at_end:
            self._prune()
            if self._queue and self._queue[0][0] <= self._now:
                return False
            stopped = self._stopped
            fn = self._at_end.pop(0)
            hook = self.dispatch_hook
            if hook is None:
                fn()
            else:
                t0 = _time.perf_counter()
                fn()
                hook(fn, (), _time.perf_counter() - t0)
            if self._stopped and not stopped:
                return True
        return False

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False when empty."""
        before = self.dispatch_count  # an instant-end callback may step()
        if self._end_instant():
            return self.dispatch_count > before
        self._prune()
        if not self._queue:
            return self.dispatch_count > before
        when, _prio, _seq, fn, args, handle = heapq.heappop(self._queue)
        if when < self._now:  # pragma: no cover - defensive; cannot happen
            raise SimulationError("event queue went backwards in time")
        if handle is not None:
            handle.active = False  # fired; a later cancel() is a no-op
        self._now = when
        self.dispatch_count += 1
        hook = self.dispatch_hook
        if hook is None:
            fn(*args)
        else:
            t0 = _time.perf_counter()
            fn(*args)
            hook(fn, args, _time.perf_counter() - t0)
        if not self._stopped:
            self._end_instant()
        return True

    def peek(self) -> float:
        """Timestamp of the next live scheduled callback, or ``inf`` if none."""
        if self._at_end:
            return self._now
        self._prune()
        return self._queue[0][0] if self._queue else math.inf

    def run(self, until: float | None = None,
            until_event: _t.Any = None,
            max_steps: int | None = None) -> None:
        """Run until the queue drains, *until* is reached, or *until_event* fires.

        When *until* is given the clock is advanced exactly to *until* even
        if the queue drains earlier, mirroring simpy semantics.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        steps = 0
        try:
            while not self._stopped:
                if self._end_instant():
                    break
                self._prune()
                if not self._queue:
                    break
                if until_event is not None and until_event.triggered:
                    break
                if until is not None and self._queue[0][0] > until:
                    break
                if max_steps is not None and steps >= max_steps:
                    raise SimulationError(
                        f"exceeded max_steps={max_steps}; likely a livelock "
                        f"(t={self._now:.3f}, queue={len(self._queue)})"
                    )
                self.step()
                steps += 1
        finally:
            self._running = False
        # Advance the clock to `until` only when the run genuinely reached
        # it — never after stop() or an until_event fired with callbacks
        # still queued (the clock must not jump past pending events).
        self._prune()
        if (until is not None and self._now < until and not self._stopped
                and (until_event is None or not until_event.triggered)
                and not self._at_end
                and (not self._queue or self._queue[0][0] > until)):
            self._now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the current callback returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) callbacks currently scheduled."""
        return len(self._queue) - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator t={self._now:.3f} pending={self.pending()}>"
