"""Unit tests for hosts and the Network facade."""

import pytest

from repro.net import (
    ADSL_LINK,
    EMULAB_LINK,
    SERVER_LINK,
    HostOffline,
    LinkSpec,
    Network,
)
from repro.obs import MetricsRegistry
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim, MetricsRegistry())


class TestLinkSpec:
    def test_defaults_valid(self):
        spec = LinkSpec()
        assert spec.down_bps > 0 and spec.up_bps > 0

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(down_bps=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(latency_s=-1)

    def test_profiles_are_asymmetric_where_expected(self):
        assert ADSL_LINK.up_bps < ADSL_LINK.down_bps
        assert EMULAB_LINK.up_bps == EMULAB_LINK.down_bps


class TestHosts:
    def test_add_host(self, net):
        h = net.add_host("a")
        assert net.hosts["a"] is h
        assert h.online

    def test_duplicate_name_rejected(self, net):
        net.add_host("a")
        with pytest.raises(ValueError):
            net.add_host("a")

    def test_link_names_include_host(self, net):
        h = net.add_host("worker1")
        assert "worker1" in h.uplink.name
        assert "worker1" in h.downlink.name


class TestTransfers:
    def test_symmetric_lan_transfer_time(self, sim, net):
        a = net.add_host("a", EMULAB_LINK)
        b = net.add_host("b", EMULAB_LINK)
        flow = net.transfer(a, b, 12.5e6)  # one second at 100 Mbit
        sim.run(until_event=flow.done)
        assert sim.now == pytest.approx(1.0)

    def test_uplink_binds_for_adsl_sender(self, sim, net):
        a = net.add_host("a", ADSL_LINK)  # 1 Mbit up = 125 kB/s
        b = net.add_host("b", EMULAB_LINK)
        flow = net.transfer(a, b, 125e3)
        sim.run(until_event=flow.done)
        assert sim.now == pytest.approx(1.0)

    def test_server_fanout_shares_server_uplink(self, sim, net):
        server = net.add_host("server", EMULAB_LINK)  # 12.5 MB/s up
        clients = [net.add_host(f"c{i}", EMULAB_LINK) for i in range(5)]
        flows = [net.transfer(server, c, 12.5e6) for c in clients]
        # All five downloads share the server's uplink.
        for f in flows:
            assert f.rate == pytest.approx(2.5e6)
        sim.run()
        assert sim.now == pytest.approx(5.0)

    def test_p2p_avoids_server_bottleneck(self, sim, net):
        # The paper's core bandwidth argument: disjoint peer pairs transfer
        # in parallel at full access speed instead of queuing on the server.
        hosts = [net.add_host(f"h{i}", EMULAB_LINK) for i in range(10)]
        flows = [net.transfer(hosts[i], hosts[i + 5], 12.5e6) for i in range(5)]
        sim.run()
        assert sim.now == pytest.approx(1.0)
        assert all(f.finished for f in flows)

    def test_offline_source_rejected(self, sim, net):
        a = net.add_host("a")
        b = net.add_host("b")
        net.set_online(a, False)
        with pytest.raises(HostOffline):
            net.transfer(a, b, 100)

    def test_offline_destination_rejected(self, sim, net):
        a = net.add_host("a")
        b = net.add_host("b")
        net.set_online(b, False)
        with pytest.raises(HostOffline):
            net.transfer(a, b, 100)

    def test_going_offline_aborts_flows(self, sim, net):
        a = net.add_host("a")
        b = net.add_host("b")
        c = net.add_host("c")
        f_ab = net.transfer(a, b, 1e9)
        f_cb = net.transfer(c, b, 1e9)
        f_ca = net.transfer(c, a, 1e9)
        net.set_online(b, False)
        assert f_ab.aborted and f_cb.aborted
        assert not f_ca.aborted

    def test_coming_back_online(self, sim, net):
        a = net.add_host("a")
        b = net.add_host("b")
        net.set_online(a, False)
        net.set_online(a, True)
        flow = net.transfer(a, b, 100)
        sim.run(until_event=flow.done)
        assert flow.finished

    def test_latency_and_rtt(self, net):
        a = net.add_host("a", LinkSpec(latency_s=0.010))
        b = net.add_host("b", LinkSpec(latency_s=0.030))
        assert net.latency(a, b) == pytest.approx(0.040)
        assert net.rtt(a, b) == pytest.approx(0.080)

    def test_extra_links_constrain(self, sim, net):
        from repro.net import Link

        a = net.add_host("a", EMULAB_LINK)
        b = net.add_host("b", EMULAB_LINK)
        trunk = Link("trunk", 10e6)  # 1.25 MB/s shared trunk
        flow = net.transfer(a, b, 1.25e6, extra_links=[trunk])
        sim.run(until_event=flow.done)
        assert sim.now == pytest.approx(1.0)

    def test_server_link_profile_fast(self, sim, net):
        s = net.add_host("s", SERVER_LINK)
        c = net.add_host("c", EMULAB_LINK)
        flow = net.transfer(s, c, 12.5e6)
        sim.run(until_event=flow.done)
        assert sim.now == pytest.approx(1.0)  # client downlink binds
