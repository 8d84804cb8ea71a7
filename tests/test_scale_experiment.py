"""The volunteer population on CloudSpec and the scale-out study plumbing."""

import pytest

from repro.boinc.client import ClientConfig
from repro.core import CloudSpec, VolunteerCloud
from repro.core.system import PC3001_FLOPS, PCR200_FLOPS
from repro.experiments import build_scale_cloud, scale_out
from repro.net import (ADSL_LINK, CABLE_LINK, EMULAB_LINK, SERVER_LINK,
                       FlowNetwork, IncrementalAllocator, topology)

from .net.reference_allocator import FullAllocator


class TestScenarioCloudSpec:
    """The population Scenario used to describe, built by from_spec."""

    def test_defaults_match_paper_testbed(self):
        spec = CloudSpec(n_nodes=4)
        assert spec.server_link is EMULAB_LINK and spec.link is EMULAB_LINK
        cloud = VolunteerCloud.from_spec(spec)
        assert [c.name for c in cloud.clients] == [
            "node000", "node001", "node002", "node003"]
        assert not cloud._started
        # Original BOINC clients default to the via-the-server config.
        assert not cloud.mr_config.reduce_from_peers
        assert cloud.mr_config.upload_map_outputs
        assert all(getattr(c, "peer_store", None) is None
                   for c in cloud.clients)

    def test_fields_flow_through(self):
        cc = ClientConfig(backoff_max_s=60.0)
        spec = CloudSpec(seed=11, n_nodes=4, mr_clients=True,
                         link=CABLE_LINK, client_config=cc,
                         fast_node_fraction=0.5, byzantine_rate=0.25)
        cloud = VolunteerCloud.from_spec(spec)
        assert cloud.mr_config.reduce_from_peers  # BOINC-MR default
        assert all(c.config is cc for c in cloud.clients)
        assert all(c.peer_store is not None for c in cloud.clients)
        assert [c.record.flops for c in cloud.clients] == [
            PCR200_FLOPS, PCR200_FLOPS, PC3001_FLOPS, PC3001_FLOPS]
        assert {c.executor.byzantine_rate for c in cloud.clients} == {0.25}
        assert cloud.clients[0].host.uplink.capacity == pytest.approx(
            CABLE_LINK.up_bps / 8.0)

    def test_server_link_override(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(
            n_nodes=4, link=ADSL_LINK, server_link=SERVER_LINK))
        assert cloud.server_host.uplink.capacity == pytest.approx(
            SERVER_LINK.up_bps / 8.0)
        # Volunteers keep the volunteer profile.
        assert cloud.clients[0].host.uplink.capacity == pytest.approx(
            ADSL_LINK.up_bps / 8.0)

    def test_allocator_knob_and_link_spec_alias_are_gone(self):
        with pytest.raises(TypeError):
            CloudSpec(n_nodes=4, allocator="full")
        with pytest.raises(TypeError):
            CloudSpec(n_nodes=4, link_spec=CABLE_LINK)
        cloud = VolunteerCloud.from_spec(CloudSpec(n_nodes=4))
        assert isinstance(cloud.net.flownet.allocator, IncrementalAllocator)

    def test_empty_spec_plus_add_volunteers_is_unchanged(self):
        # What bench/ and build_scale_cloud do: hostNNN names, and the
        # BOINC-MR default config whatever mr_clients says.
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1))
        assert cloud.clients == [] and cloud.mr_config.reduce_from_peers
        names = [c.name for c in cloud.add_volunteers(2, mr=True)]
        assert names == ["host000", "host001"]

    def test_nats_are_frozen_with_the_spec(self):
        nats = [None, None]
        spec = CloudSpec(n_nodes=2, nats=nats)
        nats.append(None)
        assert spec.nats == (None, None)
        with pytest.raises(ValueError):
            CloudSpec(n_nodes=-1)


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
