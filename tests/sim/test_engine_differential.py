"""The product kernel against the single-heap kernel it replaced.

``reference_engine.Simulator`` keeps every pending callback in one heap
keyed ``(time, priority, seq)``; ``repro.sim.Simulator`` keeps timers in
that heap and same-instant wake-ups in a FIFO beside it.  Hypothesis
drives both with one random program and they must agree on the dispatch
sequence and on every observable after every step.
"""

import math
import types

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL,
                       SimulationError, Simulator)
from repro.sim import engine as product_engine

from . import reference_engine

#: 0.0 and delays so small that ``now + delay == now`` once the clock has
#: moved, next to repeated round ones so that timers collide on an instant.
DELAYS = st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 0.25, 0.5, 0.5, 1.0,
                          1.0, 2.0, 3.5])
PRIORITIES = st.sampled_from([PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_NORMAL,
                              PRIORITY_LOW])


def _actions(children):
    """What a callback (or the test body) may do to the simulator."""
    kids = st.lists(children, max_size=3)
    return st.one_of(
        st.tuples(st.just("soon"), kids),
        st.tuples(st.just("timer"), DELAYS, PRIORITIES, st.booleans(), kids),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("stop")),
        st.tuples(st.just("fire")),
        st.tuples(st.just("step")),  # from inside a callback: nested dispatch
    )


ACTIONS = st.recursive(
    st.one_of(st.tuples(st.just("soon"), st.just([])),
              st.tuples(st.just("timer"), DELAYS, PRIORITIES, st.booleans(),
                        st.just([])),
              # Enough cancellations at once to compact the heap.
              st.tuples(st.just("bulk"),
                        st.integers(product_engine._COMPACT_MIN + 10, 700),
                        st.integers(0, 80))),
    _actions, max_leaves=12)

COMMANDS = st.one_of(
    ACTIONS, ACTIONS,
    st.tuples(st.just("step")),
    # A horizon of -1.0 asks for a run to an instant already past.
    st.tuples(st.just("run"), st.none() | DELAYS | st.just(-1.0),
              st.none() | st.integers(0, 6), st.booleans()),
    st.tuples(st.just("hook"), st.booleans()),
)


#: ``run()`` with no bound.
DRAIN = ("run", None, None, False)


class Driver:
    """Interprets a program against one kernel, logging what it observes."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.hooked = []
        self.handles = []
        self.ids = 0
        #: Stands in for an Event as ``run(until_event=…)``.
        self.watched = types.SimpleNamespace(triggered=False)

    def observe(self):
        sim = self.sim
        return (sim.now, sim.dispatch_count, sim.peak_pending, sim.pending(),
                sim.peek())

    def callback(self, ident, children):
        self.log.append((ident, self.observe()))
        for child in children:
            self.act(child)

    def hook(self, fn, args, seconds):
        assert seconds >= 0.0
        self.hooked.append(args[0])

    def act(self, action):
        sim, kind = self.sim, action[0]
        if kind == "soon":
            self.ids += 1
            sim.call_soon(self.callback, self.ids, action[1])
        elif kind == "timer":
            _, delay, priority, cancellable, children = action
            self.ids += 1
            if cancellable:
                self.handles.append(sim.schedule_cancellable(
                    delay, self.callback, self.ids, children,
                    priority=priority))
            else:
                sim.schedule(delay, self.callback, self.ids, children,
                             priority=priority)
        elif kind == "cancel":
            if self.handles:
                handle = self.handles[action[1] % len(self.handles)]
                self.log.append(("cancel", handle.cancel()))
        elif kind == "bulk":
            _, n_cancelled, n_kept = action
            batch = []
            for k in range(n_cancelled + n_kept):
                self.ids += 1
                batch.append(sim.schedule_cancellable(
                    1.0 + (k % 7) * 0.5, self.callback, self.ids, []))
            for handle in batch[:n_cancelled]:
                handle.cancel()
            self.handles.extend(batch[-3:])
        elif kind == "stop":
            sim.stop()
        elif kind == "fire":
            self.watched.triggered = True
        elif kind == "step":
            self.log.append(("step", sim.step()))
        elif kind == "run":
            _, horizon, max_steps, watch = action
            until = None if horizon is None else sim.now + horizon
            try:
                sim.run(until=until, max_steps=max_steps,
                        until_event=self.watched if watch else None)
            except (SimulationError, reference_engine.SimulationError):
                self.log.append("max_steps exceeded")
        elif kind == "hook":
            sim.dispatch_hook = self.hook if action[1] else None
        else:  # pragma: no cover - a typo in the strategies
            raise AssertionError(action)


@settings(max_examples=150, deadline=None)
@given(st.lists(COMMANDS, min_size=1, max_size=25))
# A step() nested in a callback moves the clock under the running loop;
# the timer still due at the new instant is older than the wake-up after it.
@example([("soon", [("step",), ("soon", [])]),
          ("timer", 1.0, PRIORITY_NORMAL, False, []),
          ("timer", 1.0, PRIORITY_NORMAL, False, [])])
def test_same_dispatch_order_and_observables_as_the_single_heap(program):
    product = Driver(Simulator())
    reference = Driver(reference_engine.Simulator())

    def both(command):
        product.act(command)
        reference.act(command)
        assert product.log == reference.log
        assert product.hooked == reference.hooked
        assert product.observe() == reference.observe()

    for command in program:
        both(command)
    both(DRAIN)
    while product.sim.pending() or reference.sim.pending():
        both(DRAIN)  # a stop() scheduled by the program ended the last one
    assert product.sim.peek() == reference.sim.peek() == math.inf


def test_bulk_action_compacts_the_heap_from_inside_a_callback():
    """Both kernels compact mid-run: the 513th cancellation leaves more
    than half of 670 entries dead, and the product's loop keeps running
    on the list it holds."""
    for sim in (Simulator(), reference_engine.Simulator()):
        driver, heap_sizes = Driver(sim), []

        def burst():
            driver.act(("bulk", 650, 20))
            heap_sizes.append(len(sim._queue))

        sim.call_soon(burst)
        sim.run()
        assert heap_sizes == [670 - 513]
        assert sim.dispatch_count == 21 and sim.pending() == 0
