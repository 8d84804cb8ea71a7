"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=100.0).now == 100.0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_callbacks_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_callbacks_run_fifo():
    sim = Simulator()
    seen = []
    for label in "abcde":
        sim.schedule(1.0, seen.append, label)
    sim.run()
    assert seen == list("abcde")


def test_priority_overrides_fifo_at_same_instant():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "normal")
    sim.schedule(1.0, seen.append, "high", priority=PRIORITY_HIGH)
    sim.schedule(1.0, seen.append, "low", priority=PRIORITY_LOW)
    sim.run()
    assert seen == ["high", "normal", "low"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(math.nan, lambda: None)


def test_at_schedules_absolute_time():
    sim = Simulator()
    seen = []
    sim.at(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]


def test_at_in_the_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.at(5.0, lambda: None)


def test_call_soon_runs_at_current_instant():
    sim = Simulator()
    seen = []

    def outer():
        sim.call_soon(lambda: seen.append(sim.now))

    sim.schedule(2.0, outer)
    sim.run()
    assert seen == [2.0]


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0
    assert sim.pending() == 1


def test_run_until_past_queue_drain_still_advances_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=50.0)
    assert sim.now == 50.0


def test_run_until_event():
    sim = Simulator()
    ev = sim.event()
    sim.schedule(3.0, ev.trigger)
    sim.schedule(9.0, lambda: None)
    sim.run(until_event=ev)
    assert sim.now == 3.0
    assert ev.triggered


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, seen.append, "late")
    sim.run()
    assert seen == []
    assert sim.pending() == 1


def test_max_steps_detects_livelock():
    sim = Simulator()

    def respawn():
        sim.call_soon(respawn)

    sim.call_soon(respawn)
    with pytest.raises(SimulationError, match="max_steps"):
        sim.run(max_steps=100)


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() == math.inf
    sim.schedule(4.0, lambda: None)
    assert sim.peek() == 4.0


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_step_runs_one_callback_and_advances_clock():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    assert sim.peek() == 1.0
    assert sim.step() is True
    assert sim.now == 1.0
    assert sim.step() is True and sim.step() is False
    assert sim.peek() == math.inf


def test_dispatch_count_increments():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.dispatch_count == 5


def test_reentrant_run_rejected():
    sim = Simulator()

    def inner():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, inner)
    sim.run()


def test_scheduling_during_run_is_honoured():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(5.0, lambda: seen.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 6.0


class TestAtInstantEnd:
    def test_runs_after_the_instant_and_before_the_clock_moves(self):
        sim = Simulator()
        seen = []

        def first():
            sim.at_instant_end(lambda: seen.append(("end", sim.now)))
            sim.call_soon(lambda: seen.append(("soon", sim.now)))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: seen.append(("timer", sim.now)))
        sim.schedule(2.0, lambda: seen.append(("later", sim.now)))
        sim.run()
        assert seen == [("timer", 1.0), ("soon", 1.0), ("end", 1.0),
                        ("later", 2.0)]

    def test_runs_before_run_until_returns_and_moves_the_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, sim.at_instant_end, lambda: seen.append(sim.now))
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert seen == [1.0] and sim.now == 5.0
        # Registered outside run(): the next run() ends this instant first.
        sim.at_instant_end(lambda: seen.append(sim.now))
        assert sim.peek() == 5.0
        sim.run(until=7.0)
        assert seen == [1.0, 5.0] and sim.now == 7.0

    def test_is_not_a_dispatched_event(self):
        sim = Simulator()
        hooked = []
        sim.dispatch_hook = lambda fn, args, seconds: hooked.append(fn)
        end = lambda: None  # noqa: E731
        sim.schedule(1.0, sim.at_instant_end, end)
        sim.run()
        assert sim.dispatch_count == 1  # the timer, not the end callback
        assert sim.pending() == 0 and sim.peak_pending == 1
        assert hooked[-1] is end  # but a profiler still sees it

    def test_work_it_schedules_at_now_extends_the_instant(self):
        sim = Simulator()
        seen = []

        def end():
            seen.append("end")
            sim.schedule(0.0, lambda: seen.append(("again", sim.now)))

        sim.at_instant_end(end)
        sim.schedule(3.0, lambda: seen.append(("later", sim.now)))
        sim.run()
        assert seen == ["end", ("again", 0.0), ("later", 3.0)]

    def test_step_ends_the_instant_its_callback_finished(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, sim.at_instant_end, lambda: seen.append("end"))
        sim.schedule(2.0, lambda: None)
        assert sim.step() is True
        assert seen == ["end"] and sim.now == 1.0
