"""Generator-based simulation processes.

A process is a Python generator driven by the simulator.  It advances by
yielding *waitables*:

- an :class:`~repro.sim.events.Event` (including :class:`Timeout`,
  :class:`AllOf`, :class:`AnyOf`, or another :class:`Process`) — the process
  resumes when it fires, receiving the event's value (for ``AnyOf``, the
  winning child event);
- a plain ``float``/``int`` — sleep that many seconds: one timer that
  resumes the generator itself, cancelled if the process is interrupted;
  :meth:`Process.wake` cuts such a sleep short, resuming the process at
  the current instant (after the wake-ups already queued for it);
- ``None`` — resume on the next scheduler pass at the same instant.

A :class:`Process` is itself an :class:`Event` that triggers with the
generator's return value, so processes can wait for each other and be
combined in conditions.  An exception escaping the generator fails the
process event; if nothing is waiting on it the exception propagates out of
the simulation run (crashes should be loud, not silent).
"""

from __future__ import annotations

import math
import typing as _t

from .events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only (engine imports this module)
    from .engine import Simulator, TimerHandle


class Interrupted(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: _t.Any = None) -> None:
        """Raised inside a process; *cause* says who interrupted it."""
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation process (also an event; fires on completion)."""

    __slots__ = ("_gen", "_waiting_on", "_started", "_sleep")

    def __init__(self, sim: Simulator, gen: _t.Generator, name: str = "") -> None:
        """Wrap generator *gen* as a process and schedule its first step."""
        if not hasattr(gen, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Event | None = None
        self._started = False
        #: The timer of the last plain-number sleep (``interrupt`` cancels it).
        self._sleep: TimerHandle | None = None
        sim.call_soon(self._resume, None)

    # -- driving ------------------------------------------------------------
    def _resume(self, fired: Event | None) -> None:
        if self._triggered:
            return  # finished or interrupted while this wakeup was in flight
        if fired is not None and fired is not self._waiting_on:
            return  # stale wakeup from an event we stopped waiting on
        self._waiting_on = None
        try:
            if not self._started:
                self._started = True
                target = next(self._gen)
            elif fired is None:
                target = self._gen.send(None)
            elif fired._exc is not None:
                target = self._gen.throw(fired._exc)
            else:
                target = self._gen.send(fired._value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except BaseException as exc:
            self._crash(exc)
            return
        self._wait_for(target)

    def _wait_for(self, target: _t.Any) -> None:
        if target is None:
            self.sim.call_soon(self._resume, None)
            return
        if isinstance(target, (int, float)):
            if not 0 <= target < math.inf:  # negative, NaN or infinite
                self._crash(ValueError(
                    f"process {self.name!r} yielded the delay {target!r}; "
                    "expected a finite number of seconds >= 0"))
                return
            self._sleep = self.sim.schedule_cancellable(
                target, self._resume, None)
            return
        if not isinstance(target, Event):
            self._crash(TypeError(
                f"process {self.name!r} yielded {target!r}; expected an Event, "
                "a delay in seconds, or None"
            ))
            return
        if target is self:
            self._crash(RuntimeError(f"process {self.name!r} waited on itself"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def _crash(self, exc: BaseException) -> None:
        """Fail the process; re-raise if nobody is observing the failure."""
        observed = bool(self._callbacks)
        self.fail(exc)
        if not observed:
            raise exc

    # -- control ------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: _t.Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current instant.

        A process blocked on an event is detached from it; the event may
        still fire later without affecting the interrupted process.  A
        process asleep on a plain-number delay has that timer cancelled.
        """
        if self.triggered:
            return
        if self._sleep is not None:  # or it could wake us before delivery
            self._sleep.cancel()
        self.sim.call_soon(self._do_interrupt, cause)

    def wake(self) -> None:
        """Cut a plain-number sleep short: resume at the current instant.

        Cancels the sleep's timer and queues the resume behind the
        same-instant wake-ups already queued.  A no-op unless the process
        is asleep on a plain-number delay: it waits on an event, its sleep
        fired or was cut short already, it was interrupted, or it finished.
        """
        if self._sleep is not None and self._sleep.cancel():
            self.sim.call_soon(self._resume, None)

    def _do_interrupt(self, cause: _t.Any) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        if self._sleep is not None:
            self._sleep.cancel()
        try:
            target = self._gen.throw(Interrupted(cause))
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Interrupted as exc:
            self.fail(exc)
            return
        except BaseException as exc:
            self._crash(exc)
            return
        self._wait_for(target)
