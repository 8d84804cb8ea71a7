"""The production max–min solver is bit-identical to its reference.

``repro.net.flows.maxmin_rates`` keeps one scalar fill level and walks
only live links and capped flows; ``reference_maxmin`` is the per-flow
progressive filling it replaced, kept verbatim.  Golden traces are
byte-compared, so "close" is not enough: every rate must be the same
float, bit for bit (``float.hex``), on any topology — caps, a link listed
twice by one flow, one giant star, a chain — over the component's kept
adjacency and link loads, which it leaves as given.  A link's used rate,
summed on read, is the float the old per-solve tally made.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Flow, FlowNetwork, Link, maxmin_rates
from repro.obs import MetricsRegistry
from repro.sim import Simulator

from . import reference_maxmin as reference
from .reference_allocator import _tally
from .solver_inputs import adjacency, load, solve


def _flows(caps_bps, specs):
    """Detached flows (no network) over links of *caps_bps*, in start order."""
    sim = Simulator()
    links = [Link(f"l{i}", cap) for i, cap in enumerate(caps_bps)]
    flows = []
    for seq, (idx, max_rate) in enumerate(specs):
        flow = Flow(sim, f"f{seq}", [links[i % len(links)] for i in idx],
                    1e6, max_rate)
        flow.seq = seq
        flows.append(flow)
    return links, flows


def _assert_identical(new, ref):
    assert list(new) == list(ref)  # same flows, same (input) order
    for flow, want in ref.items():
        assert new[flow].hex() == want.hex(), flow.name


def _assert_solves_identically(flows, want):
    """The solver over a ready adjacency and load, which it leaves as given."""
    adj, counts = adjacency(flows), load(flows)
    _assert_identical(maxmin_rates(flows, adj, counts), want)
    assert counts == load(flows) and adj == adjacency(flows)


capacities = st.lists(
    st.one_of(st.floats(min_value=8.0, max_value=1e10),
              st.sampled_from([8e2, 1e6, 1e8])),
    min_size=1, max_size=6)
flow_spec = st.tuples(
    # Link indices, *not* unique: a flow may list one link twice.
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
    st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e9),
              st.sampled_from([100.0, 12.5])))
topology = st.tuples(capacities, st.lists(flow_spec, min_size=1, max_size=24))


@settings(max_examples=300, deadline=None)
@given(topology)
def test_solver_is_bit_identical_on_random_topologies(topo):
    caps, specs = topo
    _, flows = _flows(caps, specs)
    _assert_solves_identically(flows, reference.maxmin_rates(flows))


def test_repeated_link_counts_twice():
    """A flow listing a link twice takes two shares of it, as it always has."""
    _, flows = _flows([800.0, 8e3], [([0, 0], None), ([0], None),
                                     ([0, 1, 0], 20.0)])
    want = reference.maxmin_rates(flows)
    _assert_solves_identically(flows, want)
    assert load(flows)[flows[0].links[0]] == 5
    assert want[flows[0]] == pytest.approx(20.0)  # 100 B/s over 5 traversals


@pytest.mark.parametrize("capped", [False, True])
def test_three_hundred_flow_star(capped):
    """The server-hub shape: every flow crosses one link, plus its own."""
    n = 300
    caps = [1e8] + [1e8 / (1 + i % 7) for i in range(n)]
    specs = [([0, 1 + i], (1e4 * (1 + i % 11) if capped and i % 3 == 0
                           else None)) for i in range(n)]
    _, flows = _flows(caps, specs)
    _assert_solves_identically(flows, reference.maxmin_rates(flows))


def test_chain():
    """Flow i spans links i and i+1: every link couples two neighbours."""
    n = 40
    caps = [8e3 * (1 + (i * 7) % 5) for i in range(n + 1)]
    specs = [([i, i + 1], None) for i in range(n)]
    _, flows = _flows(caps, specs)
    _assert_solves_identically(flows, reference.maxmin_rates(flows))


def test_empty():
    assert maxmin_rates([], {}, {}) == {}
    assert solve([]) == {}


@settings(max_examples=150, deadline=None)
@given(topology, st.floats(min_value=0.0, max_value=5.0))
def test_link_used_is_the_old_tally_sum(topo, run_for):
    """Summed on read, a link's usage is the start-order per-solve tally."""
    caps, specs = topo
    sim = Simulator()
    net = FlowNetwork(sim, MetricsRegistry())
    links = [Link(f"l{i}", cap) for i, cap in enumerate(caps)]
    for seq, (idx, max_rate) in enumerate(specs):
        net.start_flow(f"f{seq}", [links[i % len(links)] for i in idx],
                       1e3 * (1 + seq), max_rate)
    for until in (0.0, run_for):
        sim.run(until=until)
        net.allocator.flush()
        used = dict.fromkeys(links, 0.0)
        _tally(net.active, used)
        assert ([net.allocator.link_used(link).hex() for link in links]
                == [used[link].hex() for link in links])
