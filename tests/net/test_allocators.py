"""Equivalence and accounting tests for the flow network's rate allocator.

The incremental (component-partitioned) allocator must be observationally
equivalent to the reference full-recompute allocator kept in
``reference_allocator.py``: same rates on the same active flow set, same
completion behaviour, same link accounting.  These tests drive both
implementations through randomized flow sets and
churn sequences (hypothesis) and pin the O(1) ``utilisation()`` sums
against a brute-force recount.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, IncrementalAllocator, Link, maxmin_rates
from repro.sim import Simulator

from .reference_allocator import FullAllocator

#: The product allocator and the oracle; each network gets a fresh instance.
BOTH = pytest.mark.parametrize(
    "allocator", [IncrementalAllocator, FullAllocator],
    ids=["incremental", "full"])


# ---------------------------------------------------------------------------
# Constructor API: one allocator, one test-only seam
# ---------------------------------------------------------------------------

class TestAllocatorAPI:
    def test_default_is_incremental(self):
        net = FlowNetwork(Simulator())
        assert isinstance(net.allocator, IncrementalAllocator)

    def test_instance_passthrough(self):
        alloc = FullAllocator()
        net = FlowNetwork(Simulator(), allocator=alloc)
        assert net.allocator is alloc

    def test_reference_is_not_importable_from_the_product(self):
        with pytest.raises(ImportError):
            from repro.net import FullAllocator  # noqa: F401
        import repro.net.flows as flows
        for gone in ("FullAllocator", "RateAllocator", "ALLOCATORS"):
            assert not hasattr(flows, gone)

    def test_allocator_names_are_not_accepted(self):
        # The string dispatch is gone: only an instance (or None) works.
        with pytest.raises(AttributeError):
            FlowNetwork(Simulator(), allocator="full")

    def test_component_count(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        l1, l2 = Link("l1", 800), Link("l2", 800)
        net.start_flow("a", [l1], 1e6)
        net.start_flow("b", [l2], 1e6)
        assert net.allocator.component_count() == 2
        net.start_flow("c", [l1, l2], 1e6)  # bridges the two
        assert net.allocator.component_count() == 1


# ---------------------------------------------------------------------------
# Randomized equivalence: incremental vs full, no time passing
# ---------------------------------------------------------------------------

flow_spec = st.tuples(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3,
             unique=True),                                   # link indices
    st.floats(min_value=1.0, max_value=1e6),                 # size (bytes)
    st.booleans(),                                           # background
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e4)),  # cap
)

churn_script = st.tuples(
    st.lists(st.floats(min_value=100.0, max_value=1e5),     # capacities B/s
             min_size=5, max_size=5),
    st.lists(flow_spec, min_size=1, max_size=16),
    st.lists(st.integers(min_value=0, max_value=15),        # abort order
             max_size=8, unique=True),
)


def _build(allocator, caps, specs):
    sim = Simulator()
    net = FlowNetwork(sim, allocator=allocator())
    links = [Link(f"l{i}", cap * 8.0) for i, cap in enumerate(caps)]
    flows = []
    for i, (linkidx, size, background, max_rate) in enumerate(specs):
        flows.append(net.start_flow(
            f"f{i}", [links[j] for j in linkidx], size,
            background=background, max_rate=max_rate))
    return sim, net, links, flows


def _assert_rates_match(flows_a, flows_b):
    for fa, fb in zip(flows_a, flows_b):
        assert fa.rate == pytest.approx(fb.rate, rel=1e-9, abs=1e-9), \
            (fa.name, fa.rate, fb.rate)


@settings(max_examples=60, deadline=None)
@given(churn_script)
def test_incremental_matches_full_under_churn(script):
    """Same rates after every start and abort, with no time passing."""
    caps, specs, aborts = script
    _, net_inc, _, flows_inc = _build(IncrementalAllocator, caps, specs)
    _, net_full, _, flows_full = _build(FullAllocator, caps, specs)
    _assert_rates_match(flows_inc, flows_full)
    for idx in aborts:
        if idx >= len(specs):
            continue
        net_inc.abort_flow(flows_inc[idx])
        net_full.abort_flow(flows_full[idx])
        _assert_rates_match(flows_inc, flows_full)


@settings(max_examples=60, deadline=None)
@given(churn_script)
def test_incremental_matches_maxmin_reference(script):
    """Foreground rates agree with a direct ``maxmin_rates`` evaluation."""
    caps, specs, _ = script
    _, net, _, flows = _build(IncrementalAllocator, caps, specs)
    foreground = [f for f in flows if not f.background and not f.finished]
    reference = maxmin_rates(foreground)
    for f in foreground:
        assert f.rate == pytest.approx(reference[f], rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(churn_script)
def test_incremental_matches_full_to_completion(script):
    """Both allocators deliver every byte and agree on completion times."""
    caps, specs, aborts = script
    sim_i, net_i, _, flows_i = _build(IncrementalAllocator, caps, specs)
    sim_f, net_f, _, flows_f = _build(FullAllocator, caps, specs)
    for idx in aborts:
        if idx < len(specs):
            net_i.abort_flow(flows_i[idx])
            net_f.abort_flow(flows_f[idx])
    sim_i.run()
    sim_f.run()
    assert net_i.flows_completed == net_f.flows_completed
    assert net_i.flows_aborted == net_f.flows_aborted
    assert net_i.bytes_delivered == pytest.approx(
        net_f.bytes_delivered, rel=1e-9)
    for fi, ff in zip(flows_i, flows_f):
        assert fi.finished == ff.finished
        if fi.finished_at is not None:
            # Epsilon-simultaneous completions may resolve in a different
            # batch across strategies; allow the epsilon/rate slack.
            assert fi.finished_at == pytest.approx(
                ff.finished_at, rel=1e-6, abs=1e-2)


# ---------------------------------------------------------------------------
# O(1) utilisation accounting stays exact across abort/complete
# ---------------------------------------------------------------------------

def _brute_utilisation(net, link):
    used = sum(f.rate for f in net.active if link in f.links)
    return used / link.capacity


@BOTH
def test_utilisation_tracks_churn(allocator):
    sim = Simulator()
    net = FlowNetwork(sim, allocator=allocator())
    links = [Link(f"l{i}", 8e6) for i in range(3)]  # 1 MB/s each

    def check():
        for link in links:
            assert net.utilisation(link) == pytest.approx(
                _brute_utilisation(net, link), rel=1e-9, abs=1e-12)

    flows = []
    for i in range(12):
        flows.append(net.start_flow(
            f"f{i}", [links[i % 3], links[(i + 1) % 3]],
            2e5 * (1 + i % 4), background=(i % 5 == 0)))
        check()
    net.abort_flow(flows[2])
    check()
    sim.run(until=0.3)           # partial progress
    check()
    net.abort_flow(flows[7])
    check()
    sim.run(until_event=flows[1].done)   # at least one completion
    check()
    sim.run()                    # drain everything
    for link in links:
        assert net.utilisation(link) == pytest.approx(0.0, abs=1e-12)


@BOTH
def test_utilisation_no_drift_after_many_cycles(allocator):
    """Per-link used-rate sums must not accumulate float residue."""
    sim = Simulator()
    net = FlowNetwork(sim, allocator=allocator())
    link = Link("l", 8e5)  # 100 kB/s
    for cycle in range(30):
        f1 = net.start_flow(f"a{cycle}", [link], 1e4 / 3)
        f2 = net.start_flow(f"b{cycle}", [link], 1e4 / 7)
        if cycle % 3 == 0:
            net.abort_flow(f1)
        sim.run()
        assert f2.finished
    assert net.utilisation(link) == pytest.approx(0.0, abs=1e-9)
    assert net.active_count == 0
    assert net.allocator.component_count() == 0


def test_recompute_refreshes_rates_after_capacity_change():
    """`recompute()` is the one public entry point for external changes."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = Link("l", 8e6)
    flow = net.start_flow("f", [link], 1e9)
    assert flow.rate == pytest.approx(1e6)
    link.capacity /= 2          # e.g. a fault injector degrading the link
    net.recompute()
    assert flow.rate == pytest.approx(5e5)
    assert net.utilisation(link) == pytest.approx(1.0)
