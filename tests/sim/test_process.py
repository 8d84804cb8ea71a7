"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Interrupted, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_process_yields_delays(sim):
    log = []

    def body():
        log.append(sim.now)
        yield 3.0
        log.append(sim.now)
        yield 2.0
        log.append(sim.now)

    sim.process(body())
    sim.run()
    assert log == [0.0, 3.0, 5.0]


def test_process_return_value_becomes_event_value(sim):
    def body():
        yield 1.0
        return "result"

    proc = sim.process(body())
    sim.run()
    assert proc.value == "result"


def test_process_waits_on_event_and_receives_value(sim):
    ev = sim.event()
    got = []

    def body():
        got.append((yield ev))

    sim.process(body())
    sim.schedule(4.0, ev.trigger, "payload")
    sim.run()
    assert got == ["payload"]


def test_process_waits_on_process(sim):
    def child():
        yield 5.0
        return 99

    def parent():
        value = yield sim.process(child())
        return value + 1

    proc = sim.process(parent())
    sim.run()
    assert proc.value == 100


def test_yield_none_resumes_same_instant(sim):
    times = []

    def body():
        times.append(sim.now)
        yield None
        times.append(sim.now)

    sim.schedule(2.0, lambda: sim.process(body()))
    sim.run()
    assert times == [2.0, 2.0]


def test_non_generator_rejected(sim):
    with pytest.raises(TypeError, match="generator"):
        sim.process(lambda: None)


def test_yielding_garbage_fails_process(sim):
    def body():
        yield "nonsense"

    proc = sim.process(body())
    with pytest.raises(TypeError, match="yielded"):
        sim.run()
    assert proc.triggered and proc.exception is not None


BAD_DELAYS = [-1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("delay", BAD_DELAYS, ids=repr)
def test_unobserved_bad_delay_fails_process_and_propagates(sim, delay):
    def body():
        yield delay

    proc = sim.process(body())
    with pytest.raises(ValueError, match="yielded the delay"):
        sim.run()
    assert not proc.alive and proc.exception is not None
    assert sim.pending() == 0  # no timer was scheduled for it


@pytest.mark.parametrize("delay", BAD_DELAYS, ids=repr)
def test_observed_bad_delay_reaches_the_supervisor(sim, delay):
    """A malformed delay is a malformed yield like any other: the waiter
    registered before it sees the error and the run goes on."""
    seen = []

    def child():
        yield 1.0
        yield delay

    def supervisor(proc):
        try:
            yield proc
        except ValueError as exc:
            seen.append((sim.now, str(exc)))
        yield 2.0
        seen.append(sim.now)

    proc = sim.process(child(), name="child")
    sim.process(supervisor(proc))
    sim.run()
    assert not proc.alive and isinstance(proc.exception, ValueError)
    assert seen == [(1.0, f"process 'child' yielded the delay {delay!r}; "
                          "expected a finite number of seconds >= 0"), 3.0]


def test_direct_callers_still_get_bad_delays_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)
    for delay in BAD_DELAYS[:2]:
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)


def test_unobserved_exception_propagates(sim):
    def body():
        yield 1.0
        raise ValueError("model bug")

    sim.process(body())
    with pytest.raises(ValueError, match="model bug"):
        sim.run()


def test_observed_exception_delivered_to_waiter(sim):
    def child():
        yield 1.0
        raise ValueError("child died")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught: {exc}"

    proc = sim.process(parent())
    sim.run()
    assert proc.value == "caught: child died"


def test_failed_event_raises_inside_process(sim):
    ev = sim.event()

    def body():
        try:
            yield ev
        except RuntimeError:
            return "handled"

    proc = sim.process(body())
    sim.schedule(1.0, ev.fail, RuntimeError("io error"))
    sim.run()
    assert proc.value == "handled"


def test_interrupt_raises_interrupted(sim):
    def body():
        try:
            yield 100.0
        except Interrupted as exc:
            return ("interrupted", exc.cause, sim.now)

    proc = sim.process(body())
    sim.schedule(5.0, proc.interrupt, "user shutdown")
    sim.run()
    assert proc.value == ("interrupted", "user shutdown", 5.0)


def test_interrupt_unhandled_fails_process(sim):
    def body():
        yield 100.0

    def parent():
        try:
            yield proc
        except Interrupted:
            return "saw interrupt"

    proc = sim.process(body())
    par = sim.process(parent())
    sim.schedule(1.0, proc.interrupt)
    sim.run()
    assert par.value == "saw interrupt"


def test_interrupt_after_completion_is_noop(sim):
    def body():
        yield 1.0
        return "done"

    proc = sim.process(body())
    sim.schedule(5.0, proc.interrupt)
    sim.run()
    assert proc.value == "done"


def test_stale_event_does_not_resume_interrupted_process(sim):
    """After an interrupt, the original event firing must not re-enter the body."""
    ev = sim.event()
    resumed = []

    def body():
        try:
            yield ev
            resumed.append("event path")
        except Interrupted:
            yield 10.0  # still alive; stale ev wakeup must not resume us early
            resumed.append("interrupt path")

    proc = sim.process(body())
    sim.schedule(1.0, proc.interrupt)
    sim.schedule(2.0, ev.trigger, "late")
    sim.run()
    assert resumed == ["interrupt path"]
    assert sim.now == 11.0


def test_anyof_inside_process_returns_winning_event(sim):
    data_ready = sim.event("data")

    def body():
        timeout = sim.timeout(10.0)
        winner = yield sim.any_of([data_ready, timeout])
        return "data" if winner is data_ready else "timeout"

    proc = sim.process(body())
    sim.schedule(3.0, data_ready.trigger)
    sim.run()
    assert proc.value == "data"


def test_anyof_timeout_branch(sim):
    data_ready = sim.event("data")

    def body():
        timeout = sim.timeout(10.0)
        winner = yield sim.any_of([data_ready, timeout])
        return "data" if winner is data_ready else "timeout"

    proc = sim.process(body())
    sim.run()
    assert proc.value == "timeout"
    assert sim.now == 10.0


def test_two_processes_interleave_deterministically(sim):
    log = []

    def worker(name, period):
        for _ in range(3):
            yield period
            log.append((sim.now, name))

    sim.process(worker("a", 2.0))
    sim.process(worker("b", 3.0))
    sim.run()
    # At t=6 both fire; b's timeout was created earlier (t=3 vs t=4), so FIFO
    # tie-breaking runs b first — deterministic across runs.
    assert log == [
        (2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a"), (9.0, "b"),
    ]


def test_process_waiting_on_itself_fails(sim):
    holder = {}

    def body():
        yield holder["proc"]

    holder["proc"] = sim.process(body())
    with pytest.raises(RuntimeError, match="waited on itself"):
        sim.run()


# -- a plain-number delay is one cancellable timer ---------------------------

def test_interrupt_cancels_the_sleep_timer(sim):
    """No Timeout event is left behind: the interrupt retracts the timer,
    so the stale one can never resume the process and the clock does not
    run on to it."""
    never = sim.event()
    log = []

    def body():
        try:
            yield 10.0
            log.append(("slept", sim.now))
        except Interrupted:
            log.append(("interrupted", sim.now))
            yield never

    proc = sim.process(body())
    sim.run(until=1.0)
    assert sim.pending() == 1  # the sleep timer
    proc.interrupt()
    assert sim.pending() == 1  # timer retracted, interrupt queued
    sim.step()  # deliver the interrupt
    assert sim.pending() == 0  # dropped by one: no stale timer pending
    sim.run()
    assert log == [("interrupted", 1.0)]
    assert sim.now == 1.0 and proc.alive


def test_an_interrupt_beats_a_sleep_due_the_same_instant(sim):
    """The interrupt is delivered a hop after ``interrupt()``; a sleep
    timer due in between must not resume the process first (a server
    crash landing on a daemon's poll instant kills the daemon unpolled)."""
    log = []

    def body():
        try:
            yield 5.0
            log.append(("slept", sim.now))
        except Interrupted:
            log.append(("interrupted", sim.now))

    holder = {}
    sim.schedule(5.0, lambda: holder["proc"].interrupt())  # older than
    holder["proc"] = sim.process(body())                   # the sleep
    sim.run()
    assert log == [("interrupted", 5.0)]


def test_an_interrupt_cancels_the_sleep_taken_after_an_earlier_one(sim):
    """Two interrupts in one instant: the sleep the first one led to is
    the one the second retracts."""
    log = []

    def body():
        for delay in (100.0, 5.0, 2.0):
            try:
                yield delay
                break
            except Interrupted as exc:
                log.append((exc.cause, sim.now))
        log.append(("slept", sim.now))
        yield 10.0  # a stale 5 s timer would cut this short at t=6
        log.append(("slept", sim.now))

    proc = sim.process(body())
    sim.schedule(1.0, proc.interrupt, "first")
    sim.schedule(1.0, proc.interrupt, "second")
    sim.run()
    assert log == [("first", 1.0), ("second", 1.0), ("slept", 3.0),
                   ("slept", 13.0)]


def test_zero_delay_and_none_resume_in_yield_order(sim):
    """``yield 0`` is a timer due now and ``yield None`` a same-instant
    wake-up; both keep the kernel's one (time, priority, seq) order, so
    processes resume in the order they yielded."""
    log = []

    def body(tag, wait):
        yield wait
        log.append((tag, sim.now))

    def start():
        for tag, wait in (("a", 0), ("b", None), ("c", 0.0), ("d", None)):
            sim.process(body(tag, wait))

    sim.schedule(2.0, start)
    sim.run()
    assert log == [("a", 2.0), ("b", 2.0), ("c", 2.0), ("d", 2.0)]
    assert sim.dispatch_count == 1 + 4 + 4  # start, four starts, four wakes


# -- wake(): cut a plain-number sleep short ----------------------------------

def test_wake_resumes_a_sleep_now_after_the_queued_wakeups(sim):
    """``wake()`` cancels the sleep timer and queues the resume behind the
    same-instant wake-ups already queued, as triggering an event the
    process waited on would."""
    log = []

    def sleeper():
        yield 100.0
        log.append(("woke", sim.now))
        yield 5.0
        log.append(("slept", sim.now))

    def other(tag):
        yield None
        log.append((tag, sim.now))

    proc = sim.process(sleeper())

    def at_three():
        sim.process(other("before"))  # first step queued ahead of the wake
        proc.wake()
        sim.process(other("after"))

    sim.schedule(3.0, at_three)
    sim.run()
    assert log == [("woke", 3.0), ("before", 3.0), ("after", 3.0),
                   ("slept", 8.0)]
    assert sim.now == 8.0  # the retracted 100 s timer never ran the clock on


def test_two_wakes_in_one_instant_resume_once(sim):
    log = []

    def body():
        yield 10.0
        log.append(sim.now)
        yield 10.0
        log.append(sim.now)

    proc = sim.process(body())
    sim.schedule(2.0, proc.wake)
    sim.schedule(2.0, proc.wake)
    sim.run()
    assert log == [2.0, 12.0]


def test_wake_is_a_noop_on_a_process_waiting_on_an_event(sim):
    ev = sim.event()
    log = []

    def body():
        yield 1.0  # a sleep that fires: its spent timer stays behind
        log.append(("got", (yield ev), sim.now))

    proc = sim.process(body())
    sim.schedule(2.0, proc.wake)
    sim.schedule(5.0, ev.trigger, "v")
    sim.run()
    assert log == [("got", "v", 5.0)]


def test_wake_is_a_noop_once_the_sleep_fired(sim):
    log = []

    def body():
        yield 2.0
        log.append(sim.now)
        yield None  # the wake lands here, between two wake-ups
        log.append(sim.now)
        yield 4.0
        log.append(sim.now)

    proc = sim.process(body())
    sim.run(until=1.0)
    sim.schedule(1.0, proc.wake)  # due at 2 s, after the sleep timer
    sim.run()
    assert log == [2.0, 2.0, 6.0]
    # start, sleep timer, wake call, None hop, 4 s timer: no extra resume
    assert sim.dispatch_count == 5


def test_wake_is_a_noop_after_the_process_finished(sim):
    def body():
        yield 1.0
        return "done"

    proc = sim.process(body())
    sim.run()
    proc.wake()
    assert sim.pending() == 0
    sim.run()
    assert proc.value == "done"


def test_wake_is_a_noop_after_an_interrupt_retracted_the_sleep(sim):
    log = []

    def body():
        try:
            yield 10.0
        except Interrupted:
            log.append(("interrupted", sim.now))
            return
        log.append(("woke", sim.now))

    proc = sim.process(body())

    def at_one():
        proc.interrupt()
        proc.wake()  # the sleep is already cancelled: no second resume

    sim.schedule(1.0, at_one)
    sim.run()
    assert log == [("interrupted", 1.0)]
