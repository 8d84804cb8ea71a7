"""Unit tests for Event / Timeout / AllOf / AnyOf."""

import pytest

from repro.sim import EventAlreadyTriggered, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_event_starts_pending(sim):
    ev = sim.event("x")
    assert not ev.triggered
    assert ev.exception is None


def test_trigger_sets_value(sim):
    ev = sim.event()
    ev.trigger(42)
    assert ev.triggered and ev.exception is None
    assert ev.value == 42


def test_value_before_trigger_raises(sim):
    with pytest.raises(RuntimeError):
        sim.event().value


def test_double_trigger_rejected(sim):
    ev = sim.event()
    ev.trigger()
    with pytest.raises(EventAlreadyTriggered):
        ev.trigger()


def test_fail_then_trigger_rejected(sim):
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(EventAlreadyTriggered):
        ev.trigger()


def test_fail_requires_exception_instance(sim):
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_failed_event_value_raises_original(sim):
    ev = sim.event()
    ev.fail(ValueError("boom"))
    assert ev.triggered and isinstance(ev.exception, ValueError)
    with pytest.raises(ValueError, match="boom"):
        ev.value


def test_succeed_if_pending(sim):
    ev = sim.event()
    assert ev.succeed_if_pending() is True
    assert ev.succeed_if_pending() is False
    assert ev.triggered and ev.value is None


def test_callback_runs_through_scheduler(sim):
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.trigger("hello")
    assert seen == []  # not synchronous
    sim.run()
    assert seen == ["hello"]


def test_callback_added_after_trigger_still_runs(sim):
    ev = sim.event()
    ev.trigger(7)
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [7]


def test_timeout_fires_at_delay(sim):
    t = sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0
    assert t.triggered and t.value is None


def test_timeout_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_zero_delay_ok(sim):
    t = sim.timeout(0.0)
    sim.run()
    assert t.triggered
    assert sim.now == 0.0


def test_allof_collects_values_in_order(sim):
    a, b, c = sim.event(), sim.event(), sim.event()
    cond = sim.all_of([a, b, c])
    sim.schedule(3.0, c.trigger, "C")
    sim.schedule(1.0, a.trigger, "A")
    sim.schedule(2.0, b.trigger, "B")
    sim.run()
    assert cond.triggered
    assert cond.value == ["A", "B", "C"]


def test_allof_waits_for_all(sim):
    a, b = sim.event(), sim.event()
    cond = sim.all_of([a, b])
    sim.schedule(1.0, a.trigger)
    sim.run()
    assert not cond.triggered


def test_allof_fails_on_child_failure(sim):
    a, b = sim.event(), sim.event()
    cond = sim.all_of([a, b])
    sim.schedule(1.0, a.fail, RuntimeError("x"))
    sim.run()
    assert cond.triggered and cond.exception is not None


def test_allof_empty_rejected(sim):
    with pytest.raises(ValueError):
        sim.all_of([])


def test_anyof_fires_on_first_and_identifies_winner(sim):
    a, b = sim.event("a"), sim.event("b")
    cond = sim.any_of([a, b])
    sim.schedule(2.0, b.trigger, "B")
    sim.schedule(5.0, a.trigger, "A")
    sim.run()
    assert cond.value is b
    assert cond.value.value == "B"


def test_anyof_ignores_later_children(sim):
    a, b = sim.event(), sim.event()
    cond = sim.any_of([a, b])
    sim.schedule(1.0, a.trigger, 1)
    sim.schedule(2.0, b.trigger, 2)
    sim.run()
    assert cond.value is a


def test_anyof_with_pretriggered_child(sim):
    a = sim.event()
    a.trigger("early")
    b = sim.event()
    cond = sim.any_of([a, b])
    sim.run()
    assert cond.triggered
    assert cond.value is a


def test_condition_over_timeouts_acts_as_race(sim):
    fast = sim.timeout(1.0)
    slow = sim.timeout(10.0)
    cond = sim.any_of([fast, slow])
    sim.run(until_event=cond)
    assert cond.value is fast
    assert sim.now == 1.0
