"""Deterministic discrete-event simulation engine.

Every pending callback has a key ``(time, priority, seq)``; ``seq`` comes
from one monotonically increasing counter, so keys are unique and
callbacks run in that total order — same-instant callbacks of one
priority in the order they were scheduled.  This is what makes every run
with the same seed bit-identical, an invariant the property tests and the
golden traces rely on.

The :class:`Simulator` keeps the pending set in two containers that
together realise that one order:

- **timers** — anything scheduled with a delay, a priority or a
  :class:`TimerHandle` — in a binary heap of ``(time, priority, seq, fn,
  args, handle)`` entries;
- **same-instant wake-ups** — :meth:`Simulator.call_soon`, every
  :class:`~repro.sim.events.Event` callback, every process start, resume
  and interrupt: normal priority, due *now* — in a FIFO of ``(seq, fn,
  args)``.  Most of a run's callbacks are these, and an append and a
  ``popleft`` replace a push and a pop on a heap of hundreds of timers.

The clock cannot advance while the FIFO holds anything (a later timer
never sorts before ``(now, PRIORITY_NORMAL, seq)``), so every FIFO entry
is due at ``now``, and the dispatch loop takes the heap's live top
exactly when its key sorts before the FIFO head's: a
:data:`PRIORITY_HIGH` retraction, or an older timer landing on this
instant, still runs first.  ``tests/sim/reference_engine.py`` keeps the
single-heap kernel this one replaced as the oracle for that claim.

``peak_pending`` is the high-water mark of :meth:`Simulator.pending`, the
live callbacks in both containers (cancelled timers awaiting lazy
deletion are not counted).

Beside the two containers sits a third, tiny list: callbacks registered
with :meth:`Simulator.at_instant_end`, run once the current instant has
nothing left to dispatch and before the clock moves on.  They are not
events — they take no ``seq``, are not in :meth:`Simulator.pending` and
never count in ``dispatch_count`` or ``peak_pending`` — which is what lets
the flow allocator batch every change of an instant into one solve
without moving a single dispatched callback.

The engine is callback-based at the bottom; generator-based *processes*
(:mod:`repro.sim.process`) are layered on top and are the main way model
code is written.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import time as _time
import typing as _t

from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

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
        #: Timers: a heap in ``(time, priority, seq)`` order.  The dispatch
        #: loop holds on to this list, so it is only ever mutated in place.
        self._queue: list[tuple[float, int, int, _t.Callable[..., None], tuple,
                                TimerHandle | None]] = []
        #: Normal-priority callbacks due at the current instant, oldest first.
        self._fifo: collections.deque[
            tuple[int, _t.Callable[..., None], tuple]] = collections.deque()
        #: :meth:`at_instant_end` callbacks, oldest first.
        self._at_end: list[_t.Callable[[], None]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: Entries in the heap whose TimerHandle was cancelled (lazy deletion).
        self._cancelled = 0
        #: Number of callbacks executed so far (diagnostic).
        self.dispatch_count = 0
        #: Highest :meth:`pending` seen just before a callback left the
        #: pending set (see :attr:`peak_pending`).
        self._peak = 0
        #: Optional observer ``(fn, args, wall_seconds)`` called after every
        #: dispatched callback — the hook behind the engine self-profiler
        #: (:class:`repro.obs.probes.SelfProfiler`).  Leave ``None`` to keep
        #: the dispatch loop on its timer-free fast path.
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
        return handle

    def at(self, when: float, fn: _t.Callable[..., None], *args: _t.Any,
           priority: int = PRIORITY_NORMAL) -> None:
        """Run ``fn(*args)`` at absolute simulated time *when*."""
        self.schedule(when - self._now, fn, *args, priority=priority)

    def call_soon(self, fn: _t.Callable[..., None], *args: _t.Any) -> None:
        """Run ``fn(*args)`` at the current instant, after pending callbacks."""
        self._fifo.append((next(self._seq), fn, args))

    def at_instant_end(self, fn: _t.Callable[[], None]) -> None:
        """Run ``fn()`` once, before the clock next advances.

        It runs when the current instant has nothing left to dispatch —
        no same-instant wake-up is queued and the next timer is later than
        :attr:`now`, or nothing is pending at all — so ``run(until=…)``
        runs it before moving the clock to *until*.  Callbacks run oldest
        first; one that schedules work at the current instant extends it.
        It is not a dispatched event: :attr:`dispatch_count`,
        :meth:`pending` and :attr:`peak_pending` do not count it, but
        :attr:`dispatch_hook` sees it, so a profiler charges it to its
        owner.  :meth:`peek` returns :attr:`now` while one is registered.
        """
        self._at_end.append(fn)

    # -- event / process factories -------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event` owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: _t.Any = None, name: str = "") -> Timeout:
        """Create an event that fires *delay* seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """Event that fires when all *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events: _t.Iterable[Event]) -> AnyOf:
        """Event that fires when the first of *events* fires."""
        return AnyOf(self, events)

    def process(self, gen: _t.Generator, name: str = "") -> Process:
        """Spawn a generator-based process; see :mod:`repro.sim.process`."""
        return Process(self, gen, name=name)

    # -- execution -------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Account a lazy cancellation; compact the heap when they pile up.

        Cancelled entries are normally skipped when they surface
        (:meth:`_prune`), but a workload that cancels far more timers than
        it fires — e.g. the incremental allocator retracting superseded
        completion timers under heavy churn — would otherwise let dead
        entries dominate heap memory.  Once more than half the heap is
        cancelled (and past :data:`_COMPACT_MIN`), the live entries are
        reheapified, in place.  Compaction preserves the dispatch order
        exactly: entry keys are unique, so a heap over any subset pops in
        the same relative order.
        """
        live = self.pending()
        if live > self._peak:  # the pending set shrinks here: see _loop
            self._peak = live
        self._cancelled += 1
        queue = self._queue
        if self._cancelled > _COMPACT_MIN and self._cancelled * 2 > len(queue):
            queue[:] = [entry for entry in queue
                        if entry[5] is None or entry[5].active]
            heapq.heapify(queue)
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

    def _loop(self, until: float | None, until_event: Event | None,
              limit: int | None) -> bool:
        """Run callbacks in ``(time, priority, seq)`` order; the one loop
        behind :meth:`step` and :meth:`run`.

        Ends when nothing is pending, when the next callback is due after
        *until*, when *until_event* has fired, or after a callback called
        :meth:`stop`.  Returns True when it ended because *limit*
        callbacks had run and one more was due, else False.  Whenever the
        instant has nothing left to dispatch, the :meth:`at_instant_end`
        callbacks run first, before any of those checks.
        """
        queue, fifo, at_end = self._queue, self._fifo, self._at_end
        pop_timer, pop_soon = heapq.heappop, fifo.popleft
        steps = 0
        while True:
            now = self._now
            # Choose: the heap's live top runs first exactly when its key
            # sorts before the FIFO head's (now, PRIORITY_NORMAL, seq).
            if queue:
                top = queue[0]
                handle = top[5]
                if handle is not None and not handle.active:
                    self._prune()
                    continue
                if fifo:
                    timer = top[0] <= now and (
                        top[1] < PRIORITY_NORMAL
                        or (top[1] == PRIORITY_NORMAL and top[2] < fifo[0][0]))
                elif at_end and top[0] > now:
                    if self._end_instant():
                        return False
                    continue
                else:
                    timer = True
            elif fifo:
                timer = False
            elif at_end:
                if self._end_instant():
                    return False
                continue
            else:
                return False
            if until_event is not None and until_event.triggered:
                return False
            if until is not None and (top[0] if timer else now) > until:
                return False
            if limit is not None and steps >= limit:
                return True
            # The pending set only shrinks here and in _note_cancel, so
            # these are the two places its high-water mark is taken.
            live = len(queue) + len(fifo) - self._cancelled
            if live > self._peak:
                self._peak = live
            if timer:
                when, _prio, _seq, fn, args, handle = pop_timer(queue)
                if when < now:  # pragma: no cover - defensive; cannot happen
                    raise SimulationError("event queue went backwards in time")
                if handle is not None:
                    handle.active = False  # fired; a later cancel() is a no-op
                self._now = when
            else:
                _seq, fn, args = pop_soon()
            self.dispatch_count += 1
            hook = self.dispatch_hook
            if hook is None:
                fn(*args)
            else:
                t0 = _time.perf_counter()
                fn(*args)
                hook(fn, args, _time.perf_counter() - t0)
            steps += 1
            if self._stopped:
                return False

    def _end_instant(self) -> bool:
        """Run the oldest :meth:`at_instant_end` callback, which is not a
        dispatched event; True when it called :meth:`stop`."""
        stopped = self._stopped
        fn = self._at_end.pop(0)
        hook = self.dispatch_hook
        if hook is None:
            fn()
        else:
            t0 = _time.perf_counter()
            fn()
            hook(fn, (), _time.perf_counter() - t0)
        return self._stopped and not stopped

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False when empty."""
        before = self.dispatch_count
        self._loop(None, None, 1)
        return self.dispatch_count > before

    def peek(self) -> float:
        """Timestamp of the next live scheduled callback, or ``inf`` if none.

        It is :attr:`now` while an :meth:`at_instant_end` callback waits.
        """
        if self._fifo or self._at_end:
            return self._now
        self._prune()
        return self._queue[0][0] if self._queue else math.inf

    def run(self, until: float | None = None,
            until_event: Event | None = None,
            max_steps: int | None = None) -> None:
        """Run until the queue drains, *until* is reached, or *until_event* fires.

        When *until* is given the clock is advanced exactly to *until* even
        if the queue drains earlier, mirroring simpy semantics.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        try:
            if self._loop(until, until_event, max_steps):
                raise SimulationError(
                    f"exceeded max_steps={max_steps}; likely a livelock "
                    f"(t={self._now:.3f}, "
                    f"queue={len(self._queue) + len(self._fifo)})")
        finally:
            self._running = False
        # Advance the clock to `until` only when the run genuinely reached
        # it — never after stop() or an until_event fired with callbacks
        # still queued (the clock must not jump past pending events).
        if (until is not None and self._now < until and not self._stopped
                and (until_event is None or not until_event.triggered)
                and self.peek() > until):
            self._now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the current callback returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) callbacks currently scheduled."""
        return len(self._queue) + len(self._fifo) - self._cancelled

    @property
    def peak_pending(self) -> int:
        """High-water mark of :meth:`pending` (the scale runs' peak queue depth)."""
        return max(self._peak, self.pending())
