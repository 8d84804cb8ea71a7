"""Step-wise oracle for the incremental allocator.

A hypothesis state machine starts flows over one to three of six links
(a link may be listed twice, a flow may be capped), aborts
them, runs the clock forward, scales a link's capacity and recomputes, and
reads rates.  After every step it holds what the allocator keeps between
solves to a fresh recount, and its rates to three references:

- the components are exactly the link-connected groups of the active flows;
- each component's ``load`` is its members' link traversals, its members
  and every adjacency list are in start order;
- every rate is ``reference_maxmin.maxmin_rates`` over its component's
  flows, ``float.hex`` for ``float.hex``;
- ``utilisation(link)`` is the start-order sum of the old per-solve tally
  and never exceeds 1 (plus float slack);
- the rates agree with a network driven by the global ``FullAllocator``
  to a relative 1e-9 (solving islands apart sums different fill levels).
"""

import collections

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.net import Flow, FlowNetwork, Link
from repro.obs import MetricsRegistry
from repro.sim import Simulator

from . import reference_maxmin
from .reference_allocator import FullAllocator, _tally

N_LINKS = 6


def _connected_groups(flows):
    """Link-connected groups of *flows*, by naive closure."""
    groups = []
    for flow in flows:
        links, members = set(flow.links), {flow}
        rest = []
        for g_links, g_members in groups:
            if g_links & links:
                links |= g_links
                members |= g_members
            else:
                rest.append((g_links, g_members))
        groups = rest + [(links, members)]
    return {frozenset(members) for _, members in groups}


def _detached_copies(flows):
    """Flows outside any network with the same links, caps and order."""
    sim = Simulator()
    copies = []
    for f in flows:
        copy = Flow(sim, f.name, f.links, f.size, f.max_rate)
        copy.seq = f.seq
        copies.append(copy)
    return copies


class AllocatorMachine(RuleBasedStateMachine):
    """One product network under churn, checked after every step."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.net = FlowNetwork(self.sim, MetricsRegistry())
        self.links = []
        self.flows = []

    @initialize(caps=st.lists(st.floats(1e2, 1e5), min_size=N_LINKS,
                              max_size=N_LINKS))
    def build_links(self, caps):
        self.links = [Link(f"l{i}", cap * 8.0) for i, cap in enumerate(caps)]

    # -- rules ----------------------------------------------------------------
    @rule(idx=st.lists(st.integers(0, N_LINKS - 1), min_size=1, max_size=3),
          size=st.floats(1.0, 1e5),
          cap=st.none() | st.floats(1.0, 1e4))
    def start(self, idx, size, cap):
        self.flows.append(self.net.start_flow(
            f"f{len(self.flows)}", [self.links[i] for i in idx], size,
            max_rate=cap))

    @rule(pick=st.integers(0, 63))
    def abort(self, pick):
        if self.flows:
            self.net.abort_flow(self.flows[pick % len(self.flows)])

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.01, 30.0))
    def run_forward(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule(link=st.integers(0, N_LINKS - 1),
          factor=st.sampled_from([0.25, 0.5, 2.0, 3.0]))
    def scale_capacity(self, link, factor):
        self.links[link].capacity *= factor
        self.net.recompute()

    @rule(pick=st.integers(0, 63))
    def read_rate(self, pick):
        """A read settles pending changes; reading again changes nothing."""
        if not self.flows:
            return
        flow = self.flows[pick % len(self.flows)]
        rate = flow.rate
        assert flow.rate == rate
        assert rate == 0.0 if flow.finished else rate >= 0.0

    # -- invariants -----------------------------------------------------------
    @invariant()
    def components_are_the_connected_groups(self):
        alloc = self.net.allocator
        assert ({frozenset(c.flows) for c in alloc._comps}
                == _connected_groups(self.net.active))
        assert set(alloc._flow_comp) == set(self.net.active)

    @invariant()
    def kept_bookkeeping_equals_a_recount(self):
        alloc = self.net.allocator
        for comp in alloc._comps:
            members = list(comp.flows)
            assert members == sorted(members, key=lambda f: f.seq)
            load = collections.Counter(
                link for f in members for link in f.links)
            assert comp.load == dict(load)
            assert set(comp.adj) == set(load)
            for link, on_link in comp.adj.items():
                assert list(on_link) == [f for f in members
                                         if link in f.links]
                assert alloc._link_comp[link] is comp

    @invariant()
    def rates_equal_the_reference_bit_for_bit(self):
        self.net.allocator.flush()
        for comp in self.net.allocator._comps:
            members = list(comp.flows)
            want = reference_maxmin.maxmin_rates(_detached_copies(members))
            assert ([f._rate.hex() for f in members]
                    == [r.hex() for r in want.values()])

    @invariant()
    def utilisation_is_the_start_order_sum(self):
        self.net.allocator.flush()
        used = dict.fromkeys(self.links, 0.0)
        _tally(self.net.active, used)
        for link in self.links:
            util = self.net.utilisation(link)
            assert util.hex() == (used[link] / link.capacity).hex()
            assert util <= 1 + 1e-9

    @invariant()
    def rates_match_the_full_allocator(self):
        active = self.net.active
        full = FlowNetwork(Simulator(), MetricsRegistry(), allocator=FullAllocator())
        twins = [full.start_flow(f.name, f.links, max(f.remaining, 1.0),
                                 max_rate=f.max_rate)
                 for f in active]
        for f, twin in zip(active, twins):
            assert f.rate == pytest.approx(twin.rate, rel=1e-9, abs=1e-9), \
                f.name


TestAllocatorMachine = AllocatorMachine.TestCase
TestAllocatorMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)
