"""Simulation event primitives.

An :class:`Event` is a one-shot synchronisation point: it starts *pending*,
is *triggered* exactly once with an optional value (or an exception via
:meth:`Event.fail`), and then invokes every registered callback.  Processes
(see :mod:`repro.sim.process`) wait on events by yielding them.

Composite conditions :class:`AllOf` / :class:`AnyOf` are themselves events,
so they compose: ``yield AnyOf(sim, [transfer.done, timeout])`` is the idiom
used throughout the BOINC client for "transfer finished or timed out".
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator


class EventAlreadyTriggered(RuntimeError):
    """Raised when :meth:`Event.trigger` is called on a non-pending event."""


class Event:
    """A one-shot simulation event.

    Parameters
    ----------
    sim:
        Owning simulator; callbacks run through its scheduler so that event
        processing is deterministic and ordered by trigger time.
    name:
        Optional label used in ``repr`` and traces.
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_value", "_exc")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        """An untriggered event on *sim* (name aids tracing)."""
        self.sim = sim
        self.name = name
        self._callbacks: list[_t.Callable[[Event], None]] | None = []
        self._triggered = False
        self._value: _t.Any = None
        self._exc: BaseException | None = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has fired (successfully or with failure)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True once triggered successfully (no exception)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> _t.Any:
        """The value the event was triggered with.

        Raises the failure exception if the event failed, and
        :class:`RuntimeError` if it has not fired yet.
        """
        if not self._triggered:
            raise RuntimeError(f"event {self!r} has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The exception the event failed with, if any."""
        return self._exc

    # -- triggering -------------------------------------------------------
    def trigger(self, value: _t.Any = None) -> "Event":
        """Fire the event successfully, delivering *value* to waiters."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event with an exception; waiting processes see it raised."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self._dispatch()
        return self

    def succeed_if_pending(self, value: _t.Any = None) -> bool:
        """Trigger unless already triggered; returns whether it fired now."""
        if self._triggered:
            return False
        self.trigger(value)
        return True

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        if callbacks:
            # Simulator.call_soon(cb, self) for each, without the calls.
            sim = self.sim
            soon, seq, args = sim._fifo.append, sim._seq, (self,)
            for cb in callbacks:
                soon((next(seq), cb, args))

    # -- waiting ----------------------------------------------------------
    def add_callback(self, cb: _t.Callable[["Event"], None]) -> None:
        """Register *cb*; runs at trigger time (immediately if already fired)."""
        if self._callbacks is None:
            self.sim.call_soon(cb, self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {self._label()} {state}>"

    def _label(self) -> str:
        """What ``repr`` calls an event that was given no name."""
        return self.name or hex(id(self))


class Timeout(Event):
    """An event that fires automatically after *delay* simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: _t.Any = None,
                 name: str = "") -> None:
        """An event that self-triggers with *value* after *delay*."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=name)
        self.delay = float(delay)
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: _t.Any) -> None:
        if not self._triggered:
            self.trigger(value)

    def _label(self) -> str:
        return self.name or f"timeout({self.delay:g})"


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: _t.Iterable[Event],
                 name: str = "") -> None:
        super().__init__(sim, name=name)
        self.events: tuple[Event, ...] = tuple(events)
        if not self.events:
            raise ValueError(f"{type(self).__name__} requires at least one event")
        self._remaining = len(self.events)
        for ev in self.events:
            ev.add_callback(self._child_fired)

    def _child_fired(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every child event has fired.

    Its value is the list of child values in construction order.  If any
    child fails, the condition fails with that child's exception (first
    failure wins).
    """

    __slots__ = ()

    def _child_fired(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger([e.value for e in self.events])


class AnyOf(_Condition):
    """Fires as soon as the first child event fires.

    Its value is the child event itself (so the waiter can tell *which*
    fired).  A failing first child fails the condition.
    """

    __slots__ = ()

    def _child_fired(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self.trigger(ev)
