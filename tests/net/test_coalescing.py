"""Settling once per instant reads exactly like settling at once.

The product allocator marks a changed component and solves it when the
instant has nothing left to dispatch, or sooner when a rate is read; the
oracle ``reference_allocator.FullAllocator`` solves every change before it
returns.  Hypothesis drives both through scripts of same-instant batches —
flow starts, aborts, a capacity change followed by ``recompute()``, and
rate reads in the middle of a batch — and reads every rate, every link's
utilisation and every link's byte count again once each instant is over.
Every read must be the same float, and the flows must finish (or fail) at
the same times and in the same order.

Every flow of those scripts crosses one hub link, so the incremental
allocator holds a single component and both solve the same flows in the
same order: only then are their floats bit-identical, since solving
islands apart sums a different fill level.  The any-topology test lifts
that restriction by holding the allocator to itself made to solve at once.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, IncrementalAllocator, Link
from repro.obs import MetricsRegistry
from repro.sim import Simulator

from .reference_allocator import FullAllocator


class EagerIncremental(IncrementalAllocator):
    """The incremental allocator solving every change before it returns."""

    def _settle(self, comp):
        comp.due_now = True
        super()._settle(comp)


def _ops(n_links, hub):
    """One same-instant operation; a start crosses the hub when *hub*."""
    links = st.lists(st.integers(int(hub), n_links - 1), min_size=1 - hub,
                     max_size=2, unique=True)
    start = st.tuples(st.just("start"), links,
                      st.floats(1.0, 1e6),                   # size, bytes
                      st.none() | st.floats(1.0, 1e4))       # rate cap
    return st.one_of(
        start, start,
        st.tuples(st.just("abort"), st.integers(0, 30)),
        st.tuples(st.just("capacity"), st.integers(0, n_links - 1),
                  st.sampled_from([0.25, 0.5, 2.0, 3.0])),
        st.tuples(st.just("read"), st.integers(0, 30)))


def _scripts(n_links, hub):
    batch = st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.01, 40.0),  # gap
        st.lists(_ops(n_links, hub), min_size=1, max_size=8))
    return st.tuples(
        st.lists(st.floats(1e3, 1e5), min_size=n_links, max_size=n_links),
        st.lists(batch, min_size=1, max_size=8))


def drive(allocator, script, hub):
    """Run *script*; returns every read and every completion, in order."""
    caps, batches = script
    sim = Simulator()
    net = FlowNetwork(sim, metrics=MetricsRegistry(), allocator=allocator)
    links = [Link(f"l{i}", cap * 8.0) for i, cap in enumerate(caps)]
    flows, log = [], []

    def done(event):
        exc = event.exception
        log.append(("done", event.value.name if exc is None else str(exc),
                    sim.now))

    def run_batch(ops):
        for op in ops:
            kind = op[0]
            if kind == "start":
                _, idx, size, cap = op
                path = [links[0]] * hub + [links[i] for i in idx]
                flow = net.start_flow(f"f{len(flows)}", path, size,
                                      max_rate=cap)
                flow.done.add_callback(done)
                flows.append(flow)
            elif kind == "abort" and flows:
                net.abort_flow(flows[op[1] % len(flows)])
            elif kind == "capacity":
                links[op[1]].capacity *= op[2]
                net.recompute()
            elif kind == "read" and flows:
                flow = flows[op[1] % len(flows)]
                log.append(("mid", flow.name, flow.rate,
                            net.utilisation(flow.links[0])))

    for gap, ops in batches:
        when = sim.now + gap
        sim.at(when, run_batch, ops)
        sim.run(until=when)
        log.append(("after", sim.now, [f.rate for f in flows],
                    [net.utilisation(link) for link in links],
                    [link.bytes_carried for link in links]))
    sim.run()
    log.append(("end", [(f.finished_at, f.aborted) for f in flows],
                *(net.metrics.counter(f"net.{family}_total").value
                  for family in ("flows_completed", "flows_aborted",
                                 "bytes_delivered"))))
    return log


@settings(max_examples=120, deadline=None)
@given(_scripts(4, hub=True))
def test_every_read_and_completion_equals_the_eager_oracle(script):
    assert (drive(IncrementalAllocator(), script, hub=True)
            == drive(FullAllocator(), script, hub=True))


@settings(max_examples=120, deadline=None)
@given(_scripts(6, hub=False))
# Two islands start in one instant, then a flow bridges them: the island
# absorbed by the merge must not be solved on its own as well.
@example(([1e3] * 6, [(0.0, [("start", [0], 1.0, None),
                             ("start", [2], 1.0, None),
                             ("start", [0, 2], 1.0, None)])]))
def test_lazy_matches_eager_on_any_topology(script):
    """Islands that merge and split within an instant solve the same."""
    assert (drive(IncrementalAllocator(), script, hub=False)
            == drive(EagerIncremental(), script, hub=False))


def test_a_wave_of_starts_is_one_solve(monkeypatch):
    """k flows joining one link at one instant: one solve of k flows."""
    import repro.net.flows as flows_module

    sizes = []
    real = flows_module.maxmin_rates

    def counting(flows, adj, load):
        sizes.append(len(flows))
        return real(flows, adj, load)

    monkeypatch.setattr(flows_module, "maxmin_rates", counting)
    sim = Simulator()
    net = FlowNetwork(sim, MetricsRegistry())
    hub = Link("hub", 8e6)

    def wave():
        for i in range(50):
            net.start_flow(f"f{i}", [hub, Link(f"leaf{i}", 8e6)], 1e6)

    sim.call_soon(wave)
    sim.run(until=0.0)
    assert sizes == [50]
    assert net.utilisation(hub) == 1.0


def test_a_flow_due_now_still_completes_before_the_instant_goes_on():
    """A start that lands within epsilon of a completion solves at once.

    Flow *a* has 5e-4 bytes left when *b* joins its link, so its completion is
    due this very instant: it must complete before the next callback of
    the instant, which would otherwise abort it — as the eager oracle does.
    """
    outcomes = []
    for allocator in (IncrementalAllocator(), FullAllocator()):
        sim = Simulator()
        net = FlowNetwork(sim, MetricsRegistry(), allocator=allocator)
        link = Link("l", 8e3)  # 1000 B/s
        a = net.start_flow("a", [link], 1000.0)

        def join():
            net.start_flow("b", [link], 1000.0)
            sim.call_soon(net.abort_flow, a)

        sim.at(1.0 - 5e-7, join)
        sim.run()
        outcomes.append((a.aborted, a.finished_at))
    assert outcomes[0] == outcomes[1] == (False, 1.0 - 5e-7)
