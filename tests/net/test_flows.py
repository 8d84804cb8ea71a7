"""Unit tests for the flow-level bandwidth model."""

import pytest

from repro.net import FlowError, FlowNetwork, IncrementalAllocator, Link
from repro.obs import MetricsRegistry
from repro.sim import Simulator

from .reference_allocator import FullAllocator
from .solver_inputs import solve


def mbit(x):
    return x * 1e6  # bits per second


def counted(net, family):
    """The ``net.<family>_total`` counter of *net*'s registry."""
    return net.metrics.counter(f"net.{family}_total").value


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture(params=[IncrementalAllocator, FullAllocator],
                ids=["incremental", "full"])
def net(sim, request):
    """Every behavioural test in this file runs under the product
    allocator and under the reference oracle."""
    return FlowNetwork(sim, metrics=MetricsRegistry(),
                       allocator=request.param())


class TestLink:
    def test_capacity_converted_to_bytes(self):
        link = Link("l", mbit(100))
        assert link.capacity == pytest.approx(12.5e6)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link("l", 0)


class TestSingleFlow:
    def test_transfer_time_is_size_over_capacity(self, sim, net):
        link = Link("l", mbit(100))  # 12.5 MB/s
        flow = net.start_flow("f", [link], 12.5e6)
        sim.run(until_event=flow.done)
        assert sim.now == pytest.approx(1.0)
        assert flow.finished_at == pytest.approx(1.0)

    def test_zero_size_completes_immediately(self, sim, net):
        link = Link("l", mbit(100))
        flow = net.start_flow("f", [link], 0)
        assert flow.finished
        assert counted(net, "flows_completed") == 1

    def test_negative_size_rejected(self, sim, net):
        with pytest.raises(ValueError):
            net.start_flow("f", [Link("l", 1e6)], -5)

    def test_flow_requires_links(self, sim, net):
        with pytest.raises(ValueError):
            net.start_flow("f", [], 100)

    def test_max_rate_cap_slows_flow(self, sim, net):
        link = Link("l", mbit(100))
        flow = net.start_flow("f", [link], 1e6, max_rate=1e5)  # 100 kB/s
        sim.run(until_event=flow.done)
        assert sim.now == pytest.approx(10.0)

    def test_min_of_links_binds(self, sim, net):
        fast = Link("fast", mbit(100))
        slow = Link("slow", mbit(10))  # 1.25 MB/s
        flow = net.start_flow("f", [fast, slow], 1.25e6)
        sim.run(until_event=flow.done)
        assert sim.now == pytest.approx(1.0)


class TestSharing:
    def test_two_flows_share_link_equally(self, sim, net):
        link = Link("l", mbit(100))  # 12.5 MB/s
        f1 = net.start_flow("f1", [link], 12.5e6)
        f2 = net.start_flow("f2", [link], 12.5e6)
        assert f1.rate == pytest.approx(6.25e6)
        assert f2.rate == pytest.approx(6.25e6)
        sim.run()
        assert f1.finished_at == pytest.approx(2.0)
        assert f2.finished_at == pytest.approx(2.0)

    def test_rate_rises_when_competitor_finishes(self, sim, net):
        link = Link("l", mbit(100))  # 12.5 MB/s
        short = net.start_flow("short", [link], 6.25e6)
        long = net.start_flow("long", [link], 12.5e6)
        sim.run(until_event=short.done)
        assert sim.now == pytest.approx(1.0)
        assert long.rate == pytest.approx(12.5e6)
        sim.run(until_event=long.done)
        # long did 6.25MB in first second, remaining 6.25MB at full rate
        assert sim.now == pytest.approx(1.5)

    def test_late_arrival_slows_existing_flow(self, sim, net):
        link = Link("l", mbit(80))  # 10 MB/s
        f1 = net.start_flow("f1", [link], 20e6)
        sim.run(until=1.0)
        f2 = net.start_flow("f2", [link], 5e6)
        assert f1.rate == pytest.approx(5e6)
        assert f2.rate == pytest.approx(5e6)
        sim.run(until_event=f2.done)
        assert sim.now == pytest.approx(2.0)
        sim.run(until_event=f1.done)
        # f1: 10MB in [0,1), 5MB in [1,2), last 5MB at 10MB/s => 2.5s total
        assert sim.now == pytest.approx(2.5)

    def test_maxmin_with_unequal_bottlenecks(self):
        # Classic example: flows A (link1), B (link1+link2), C (link2).
        # link1 = 10, link2 = 4 (bytes/s). B is bottlenecked on link2:
        # B=C=2; A gets the rest of link1 = 8.
        sim = Simulator()
        l1 = Link("l1", 80)  # 10 B/s
        l2 = Link("l2", 32)  # 4 B/s
        net = FlowNetwork(sim, MetricsRegistry())
        a = net.start_flow("a", [l1], 1000)
        b = net.start_flow("b", [l1, l2], 1000)
        c = net.start_flow("c", [l2], 1000)
        assert a.rate == pytest.approx(8.0)
        assert b.rate == pytest.approx(2.0)
        assert c.rate == pytest.approx(2.0)

    def test_sum_of_rates_never_exceeds_capacity(self, sim, net):
        link = Link("l", mbit(100))
        flows = [net.start_flow(f"f{i}", [link], 1e6 * (i + 1)) for i in range(7)]
        total = sum(f.rate for f in flows)
        assert total <= link.capacity * (1 + 1e-9)
        assert total == pytest.approx(link.capacity)

    def test_utilisation(self, sim, net):
        link = Link("l", mbit(100))
        net.start_flow("f", [link], 1e9)
        assert net.utilisation(link) == pytest.approx(1.0)


class TestMaxminFunction:
    def test_empty(self):
        assert solve([]) == {}

    def test_caps_leave_capacity_unused(self, sim, net):
        link = Link("l", 100 * 8)  # 100 B/s
        f1 = net.start_flow("f1", [link], 1e4, max_rate=10.0)
        f2 = net.start_flow("f2", [link], 1e4)
        assert f1.rate == pytest.approx(10.0)
        assert f2.rate == pytest.approx(90.0)

    def test_all_capped_below_capacity(self, sim, net):
        link = Link("l", 100 * 8)
        f1 = net.start_flow("f1", [link], 1e4, max_rate=20.0)
        f2 = net.start_flow("f2", [link], 1e4, max_rate=30.0)
        assert f1.rate == pytest.approx(20.0)
        assert f2.rate == pytest.approx(30.0)


class TestAbort:
    def test_abort_fails_done_event(self, sim, net):
        link = Link("l", mbit(100))
        flow = net.start_flow("f", [link], 1e9)
        sim.run(until=1.0)
        net.abort_flow(flow, reason="peer died")
        assert flow.aborted
        with pytest.raises(FlowError, match="peer died"):
            flow.done.value

    def test_abort_releases_bandwidth(self, sim, net):
        link = Link("l", mbit(100))
        f1 = net.start_flow("f1", [link], 1e9)
        f2 = net.start_flow("f2", [link], 1e9)
        assert f2.rate == pytest.approx(6.25e6)
        net.abort_flow(f1)
        assert f2.rate == pytest.approx(12.5e6)

    def test_abort_finished_flow_is_noop(self, sim, net):
        link = Link("l", mbit(100))
        flow = net.start_flow("f", [link], 100)
        sim.run(until_event=flow.done)
        net.abort_flow(flow)
        assert not flow.aborted

    def test_counters(self, sim, net):
        link = Link("l", mbit(100))
        f1 = net.start_flow("f1", [link], 100)
        f2 = net.start_flow("f2", [link], 1e9)
        sim.run(until_event=f1.done)
        net.abort_flow(f2)
        assert counted(net, "flows_completed") == 1
        assert counted(net, "flows_aborted") == 1
        assert counted(net, "bytes_delivered") == pytest.approx(100)


class TestProgressAccounting:
    def test_many_churning_flows_all_complete(self, sim, net):
        link = Link("l", mbit(8))  # 1 MB/s
        flows = []
        for i in range(20):
            sim.schedule(i * 0.3, lambda i=i: flows.append(
                net.start_flow(f"f{i}", [link], 1e5 * (1 + i % 5))))
        sim.run()
        assert len(flows) == 20
        assert all(f.finished for f in flows)
        total = sum(f.size for f in flows)
        assert counted(net, "bytes_delivered") == pytest.approx(total)
        # Last byte cannot arrive before total/capacity seconds.
        assert sim.now >= total / link.capacity - 1e-6
