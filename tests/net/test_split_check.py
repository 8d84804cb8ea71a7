"""The incremental allocator's split check: cheap, and never wrong.

Two properties of what happens when flows leave a component:

- *Cost* — counted in adjacency members iterated, never timed.  Walking an
  N-flow star reads O(N) members (each link's member list once), and
  removing one flow from it walks nothing at all: a removal that leaves at
  most one of its links populated cannot have been a bridge.
- *Correctness* — that shortcut never hides a real split, and never
  invents one, under any churn: after every start, abort and completion
  the allocator's components are exactly the link-connected groups of the
  active flows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, Link
from repro.net.flows import _link_components
from repro.obs import MetricsRegistry
from repro.sim import Simulator


class CountingMembers(dict):
    """One link's member set; adds every member it yields to a tally."""

    def __init__(self, members, tally):
        super().__init__(members)
        self.tally = tally

    def __iter__(self):
        for member in super().__iter__():
            self.tally["members_read"] += 1
            yield member


def _instrument(comp):
    """Swap counting member sets into *comp*'s adjacency; returns the tally."""
    tally = {"members_read": 0}
    for link, members in comp.adj.items():
        comp.adj[link] = CountingMembers(members, tally)
    return tally


def _star(n):
    """*n* flows through one hub link, each with a private leaf link."""
    net = FlowNetwork(Simulator(), MetricsRegistry())
    hub = Link("hub", 8e6)
    flows = [net.start_flow(f"f{i}", [Link(f"leaf{i}", 8e6), hub], 1e9)
             for i in range(n)]
    return net, hub, flows


def _components(net):
    """The allocator's partition, as a set of frozensets of flow names."""
    return {frozenset(f.name for f in comp.flows)
            for comp in net.allocator._comps}


def _brute_components(net):
    """Link-connected groups of the active flows, by naive closure."""
    groups = []
    for flow in net.active:
        links = set(flow.links)
        names = {flow.name}
        rest = []
        for g_links, g_names in groups:
            if g_links & links:
                links |= g_links
                names |= g_names
            else:
                rest.append((g_links, g_names))
        groups = rest + [(links, names)]
    return {frozenset(names) for _, names in groups}


def _check_partition(net):
    alloc = net.allocator
    assert _components(net) == _brute_components(net)
    for comp in alloc._comps:
        assert set(comp.adj) == {l for f in comp.flows for l in f.links}
        for link, members in comp.adj.items():
            assert alloc._link_comp[link] is comp
            assert set(members) == {f for f in comp.flows if link in f.links}
    assert set(alloc._flow_comp) == set(net.active)


class TestOperationCount:
    def _walk_cost(self, n):
        net, _, flows = _star(n)
        (comp,) = net.allocator._comps
        tally = _instrument(comp)
        groups = _link_components(flows, comp.adj)
        assert [len(g) for g in groups] == [n]
        return tally["members_read"]

    def test_walk_reads_each_member_list_once(self):
        small, large = self._walk_cost(50), self._walk_cost(100)
        assert small == 2 * 50  # hub list once + fifty one-member leaves
        assert large / small <= 2.5  # linear, where the old walk was 4x

    def _removal_cost(self, n):
        net, _, flows = _star(n)
        net.allocator.flush()  # the star's own solve is not counted
        (comp,) = net.allocator._comps
        tally = _instrument(comp)
        net.abort_flow(flows[n // 2])
        assert tally["members_read"] == 0  # the removal only marks
        net.allocator.flush()  # as the end of the instant would
        assert net.allocator.component_count() == 1
        assert net.allocator._flow_comp[flows[0]] is comp  # not rebuilt
        return tally["members_read"]

    def test_removing_one_flow_from_a_star_is_linear(self):
        small, large = self._removal_cost(50), self._removal_cost(100)
        # The survivors' re-solve reads the hub's members once; the split
        # walk is skipped, since only the hub link is still populated.
        assert 0 < small <= 2 * 50
        assert large / small <= 2.5


class TestShortcutNeverMissesASplit:
    def test_bridge_between_two_stars(self):
        net = FlowNetwork(Simulator(), MetricsRegistry())
        hub_a, hub_b = Link("a", 8e6), Link("b", 8e6)
        for i in range(5):
            net.start_flow(f"a{i}", [Link(f"la{i}", 8e6), hub_a], 1e9)
            net.start_flow(f"b{i}", [Link(f"lb{i}", 8e6), hub_b], 1e9)
        assert net.allocator.component_count() == 2
        bridge = net.start_flow("bridge", [hub_a, hub_b], 1e9)
        assert net.allocator.component_count() == 1
        net.abort_flow(bridge)  # both of its links keep members: real split
        assert net.allocator.component_count() == 2
        _check_partition(net)
        # Each star shares its hub between its own five flows again.
        for flow in net.active:
            assert flow.rate == 1e6 / 5

    def test_both_links_populated_but_still_connected(self):
        net = FlowNetwork(Simulator(), MetricsRegistry())
        a, b = Link("a", 8e6), Link("b", 8e6)
        first = net.start_flow("first", [a, b], 1e9)
        net.start_flow("second", [a, b], 1e9)
        net.start_flow("only_a", [a], 1e9)
        net.abort_flow(first)  # a and b stay populated, "second" joins them
        assert net.allocator.component_count() == 1
        _check_partition(net)

    def test_two_bridges_leave_together(self):
        """Completions detach in a batch: the check sees all of them."""
        sim = Simulator()
        net = FlowNetwork(sim, MetricsRegistry())
        a, b = Link("a", 8e6), Link("b", 8e6)
        net.start_flow("stay_a", [a], 1e9)
        net.start_flow("stay_b", [b], 1e9)
        bridges = [net.start_flow(f"bridge{i}", [a, b], 1e3)
                   for i in range(2)]
        assert net.allocator.component_count() == 1
        sim.run(until_event=bridges[1].done)
        assert all(f.finished for f in bridges)
        assert net.allocator.component_count() == 2
        _check_partition(net)

    def test_removed_flow_was_the_last_on_every_link(self):
        net = FlowNetwork(Simulator(), MetricsRegistry())
        links = [Link("a", 8e6), Link("b", 8e6)]
        flow = net.start_flow("f", links, 1e9)
        net.abort_flow(flow)
        assert net.allocator.component_count() == 0
        assert not net.allocator._link_comp
        assert [net.allocator.link_used(link) for link in links] == [0.0, 0.0]


flow_spec = st.tuples(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
    st.floats(min_value=10.0, max_value=1e5))
churn = st.tuples(
    st.lists(flow_spec, min_size=1, max_size=14),
    st.lists(st.one_of(st.integers(min_value=0, max_value=13),   # abort one
                       st.floats(min_value=0.01, max_value=30.0)),  # run on
             max_size=14))


@settings(max_examples=150, deadline=None)
@given(churn)
def test_partition_is_exact_under_churn(script):
    """Starts, aborts and completions: components == connected groups."""
    specs, steps = script
    sim = Simulator()
    net = FlowNetwork(sim, MetricsRegistry())
    links = [Link(f"l{i}", 8e3) for i in range(7)]
    flows = []
    for i, (idx, size) in enumerate(specs):
        flows.append(net.start_flow(f"f{i}", [links[j] for j in idx], size))
        _check_partition(net)
    for step in steps:
        if isinstance(step, int):
            if step < len(flows):
                net.abort_flow(flows[step])
        else:
            sim.run(until=sim.now + step)
        _check_partition(net)
    sim.run()
    assert net.active_count == 0
    assert net.allocator.component_count() == 0
