"""The production max–min solver is bit-identical to its reference.

``repro.net.flows.maxmin_rates`` keeps one scalar fill level and walks
only live links and capped flows; ``reference_maxmin`` is the per-flow
progressive filling it replaced, kept verbatim.  Golden traces are
byte-compared, so "close" is not enough: every rate must be the same
float, bit for bit (``float.hex``), on any topology — caps, a link listed
twice by one flow, one giant star, a chain, and the two-pass
foreground/background allocation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Flow, Link, maxmin_rates
from repro.net import flows as flows_module
from repro.net.flows import allocate_rates
from repro.sim import Simulator

from . import reference_maxmin as reference


def _flows(caps_bps, specs):
    """Detached flows (no network) over links of *caps_bps*, in start order."""
    sim = Simulator()
    links = [Link(f"l{i}", cap) for i, cap in enumerate(caps_bps)]
    flows = []
    for seq, (idx, max_rate, background) in enumerate(specs):
        flow = Flow(sim, f"f{seq}", [links[i % len(links)] for i in idx],
                    1e6, max_rate, background)
        flow.seq = seq
        flows.append(flow)
    return links, flows


def _assert_identical(new, ref):
    assert list(new) == list(ref)  # same flows, same (input) order
    for flow, want in ref.items():
        assert new[flow].hex() == want.hex(), flow.name


def _adjacency(flows):
    """What ``_Component.adj`` holds for *flows*: link -> ordered member set."""
    adj = {}
    for flow in flows:
        for link in flow.links:
            adj.setdefault(link, {})[flow] = None
    return adj


capacities = st.lists(
    st.one_of(st.floats(min_value=8.0, max_value=1e10),
              st.sampled_from([8e2, 1e6, 1e8])),
    min_size=1, max_size=6)
flow_spec = st.tuples(
    # Link indices, *not* unique: a flow may list one link twice.
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
    st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e9),
              st.sampled_from([100.0, 12.5])),
    st.booleans())
topology = st.tuples(capacities, st.lists(flow_spec, min_size=1, max_size=24))


@settings(max_examples=300, deadline=None)
@given(topology)
def test_solver_is_bit_identical_on_random_topologies(topo):
    caps, specs = topo
    _, flows = _flows(caps, specs)
    want = reference.maxmin_rates(flows)
    _assert_identical(maxmin_rates(flows), want)
    # Handing in the component's ready-made adjacency changes nothing.
    _assert_identical(maxmin_rates(flows, adj=_adjacency(flows)), want)


@settings(max_examples=300, deadline=None)
@given(topology)
def test_two_pass_allocation_is_bit_identical(topo):
    """Foreground then background-over-residual, through ``allocate_rates``."""
    caps, specs = topo
    links, flows = _flows(caps, specs)
    before = [link.capacity for link in links]
    reference.allocate_rates(flows)
    want = [f.rate.hex() for f in flows]
    for f in flows:
        f.rate = -1.0
    allocate_rates(flows, _adjacency(flows))
    assert [f.rate.hex() for f in flows] == want
    assert [link.capacity for link in links] == before


def test_repeated_link_counts_twice():
    """A flow listing a link twice takes two shares of it, as it always has."""
    _, flows = _flows([800.0, 8e3], [([0, 0], None, False), ([0], None, False),
                                     ([0, 1, 0], 20.0, False)])
    want = reference.maxmin_rates(flows)
    _assert_identical(maxmin_rates(flows), want)
    _assert_identical(maxmin_rates(flows, adj=_adjacency(flows)), want)
    assert want[flows[0]] == pytest.approx(20.0)  # 100 B/s over 5 traversals


@pytest.mark.parametrize("capped", [False, True])
def test_three_hundred_flow_star(capped):
    """The server-hub shape: every flow crosses one link, plus its own."""
    n = 300
    caps = [1e8] + [1e8 / (1 + i % 7) for i in range(n)]
    specs = [([0, 1 + i], (1e4 * (1 + i % 11) if capped and i % 3 == 0
                           else None), False) for i in range(n)]
    _, flows = _flows(caps, specs)
    _assert_identical(maxmin_rates(flows), reference.maxmin_rates(flows))


def test_chain():
    """Flow i spans links i and i+1: every link couples two neighbours."""
    n = 40
    caps = [8e3 * (1 + (i * 7) % 5) for i in range(n + 1)]
    specs = [([i, i + 1], None, False) for i in range(n)]
    _, flows = _flows(caps, specs)
    _assert_identical(maxmin_rates(flows), reference.maxmin_rates(flows))


def test_empty():
    assert maxmin_rates([]) == {}
    assert maxmin_rates([], capacity={}, adj={}) == {}


class TestBackgroundNeverTouchesLinks:
    """The residual reaches the solver as data, not via ``Link.capacity``."""

    def _scene(self):
        links, flows = _flows([800.0, 1600.0], [
            ([0], 30.0, False), ([0, 1], None, True), ([1], None, True)])
        return links, flows

    def test_solver_sees_true_capacities_and_a_residual(self, monkeypatch):
        links, flows = self._scene()
        real, calls = flows_module.maxmin_rates, []

        def spy(subset, capacity=None, adj=None):
            calls.append(([link.capacity for link in links], capacity))
            return real(subset, capacity, adj)

        monkeypatch.setattr(flows_module, "maxmin_rates", spy)
        allocate_rates(flows)
        assert len(calls) == 2  # foreground, then background
        for seen, _ in calls:
            assert seen == [100.0, 200.0]
        residual = calls[1][1]
        assert residual == {links[0]: 70.0, links[1]: 200.0}
        assert [f.rate for f in flows] == [30.0, 70.0, 130.0]

    def test_a_raise_in_the_background_pass_leaves_links_intact(
            self, monkeypatch):
        links, flows = self._scene()
        real = flows_module.maxmin_rates

        def failing(subset, capacity=None, adj=None):
            if capacity is not None:
                raise RuntimeError("boom")
            return real(subset, capacity, adj)

        monkeypatch.setattr(flows_module, "maxmin_rates", failing)
        with pytest.raises(RuntimeError, match="boom"):
            allocate_rates(flows)
        assert [link.capacity for link in links] == [100.0, 200.0]

    def test_starved_background_flow_is_stalled(self):
        _, flows = _flows([800.0], [([0], None, False), ([0], None, True)])
        allocate_rates(flows)
        assert [f.rate for f in flows] == [100.0, 0.0]
