"""Scenario -> CloudSpec unification and the scale-out study plumbing."""

import pytest

from repro.boinc.client import ClientConfig
from repro.experiments import Scenario, build_cloud, build_scale_cloud, scale_out
from repro.net import (ADSL_LINK, CABLE_LINK, EMULAB_LINK, SERVER_LINK,
                       FlowNetwork, IncrementalAllocator, topology)

from .net.reference_allocator import FullAllocator


class TestScenarioCloudSpec:
    def test_defaults_match_paper_testbed(self):
        spec = Scenario(name="s", n_nodes=4, n_maps=4, n_reducers=2).cloud_spec()
        assert spec.server_link is EMULAB_LINK

    def test_fields_flow_through(self):
        cc = ClientConfig(backoff_max_s=60.0)
        sc = Scenario(name="s", n_nodes=4, n_maps=4, n_reducers=2,
                      link=CABLE_LINK, client_config=cc, seed=11)
        spec = sc.cloud_spec()
        assert spec.seed == 11
        assert spec.server_link is CABLE_LINK
        assert spec.client_config is cc

    def test_server_link_override(self):
        sc = Scenario(name="s", n_nodes=4, n_maps=4, n_reducers=2,
                      link=ADSL_LINK, server_link=SERVER_LINK)
        spec = sc.cloud_spec()
        assert spec.server_link is SERVER_LINK
        cloud = build_cloud(sc)
        assert cloud.server_host.uplink.capacity == pytest.approx(
            SERVER_LINK.up_bps / 8.0)
        # Volunteers keep the volunteer profile.
        assert cloud.clients[0].host.uplink.capacity == pytest.approx(
            ADSL_LINK.up_bps / 8.0)

    def test_allocator_knob_and_link_spec_alias_are_gone(self):
        with pytest.raises(TypeError):
            Scenario(name="s", n_nodes=4, n_maps=4, n_reducers=2,
                     allocator="full")
        sc = Scenario(name="s", n_nodes=4, n_maps=4, n_reducers=2,
                      link=CABLE_LINK)
        assert not hasattr(sc, "link_spec")
        assert isinstance(build_cloud(sc).net.flownet.allocator,
                          IncrementalAllocator)


class TestScaleStudy:
    def test_build_scale_cloud_shape(self):
        cloud, jobs = build_scale_cloud(100, seed=3)
        assert len(cloud.clients) == 100
        assert len(jobs) == 1  # one job per 200 volunteers, min 1
        assert isinstance(cloud.net.flownet.allocator, IncrementalAllocator)
        cloud2, jobs2 = build_scale_cloud(400, seed=3)
        assert len(jobs2) == 2

    def test_scale_out_smoke(self):
        point = scale_out(40, seed=1)
        assert point.n_nodes == 40
        assert point.events > 0
        assert point.events_per_s > 0
        assert point.peak_queue_depth > 0
        assert point.makespan_s > 0
        assert not hasattr(point, "allocator")
        with pytest.raises(TypeError):
            scale_out(40, seed=1, allocator="full")

    def test_scale_out_agrees_with_reference_allocator(self, monkeypatch):
        """Whole-cloud cross-check against the test oracle, injected at
        the one place a cloud's FlowNetwork is constructed."""
        inc = scale_out(40, seed=1)
        built = []

        def with_reference(sim, **kwargs):
            built.append(FlowNetwork(sim, allocator=FullAllocator(), **kwargs))
            return built[-1]

        monkeypatch.setattr(topology, "FlowNetwork", with_reference)
        full = scale_out(40, seed=1)
        assert [type(n.allocator) for n in built] == [FullAllocator]
        assert inc.makespan_s == pytest.approx(full.makespan_s, rel=0.05)
