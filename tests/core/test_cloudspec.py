"""CloudSpec construction API."""

import dataclasses

import pytest

from repro.core import CloudSpec, VolunteerCloud
from repro.net import EMULAB_LINK, SERVER_LINK
from repro.net import IncrementalAllocator


class TestCloudSpec:
    def test_defaults(self):
        spec = CloudSpec()
        assert spec.seed == 0
        assert spec.server_link is EMULAB_LINK

    def test_frozen(self):
        spec = CloudSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 3

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            CloudSpec(seed=-1)

    def test_replace(self):
        spec = CloudSpec(seed=4)
        other = spec.replace(server_link=SERVER_LINK)
        assert other.seed == 4
        assert other.server_link is SERVER_LINK
        assert spec.server_link is EMULAB_LINK  # original untouched


class TestFromSpec:
    def test_builds_cloud(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=7))
        assert cloud.spec.seed == 7
        assert isinstance(cloud.net.flownet.allocator, IncrementalAllocator)

    def test_allocator_knob_is_gone(self):
        with pytest.raises(TypeError):
            CloudSpec(allocator="full")
        with pytest.raises(TypeError):
            CloudSpec().replace(allocator="full")

    def test_unset_settings_are_gone(self):
        # Nobody set either: nat_study swaps cloud.connectivity.config,
        # and nothing in src/ ever read legacy_reduce_via_server.
        from repro.core import BoincMRConfig
        from repro.net import TraversalConfig

        with pytest.raises(TypeError):
            CloudSpec(traversal_config=TraversalConfig())
        with pytest.raises(TypeError):
            BoincMRConfig(legacy_reduce_via_server=False)

    def test_server_link_flows_through(self):
        cloud = VolunteerCloud.from_spec(CloudSpec(server_link=SERVER_LINK))
        assert cloud.server_host.uplink.capacity == pytest.approx(
            SERVER_LINK.up_bps / 8.0)

    def test_only_a_spec_is_accepted(self):
        with pytest.raises(TypeError):
            VolunteerCloud.from_spec(5)
        with pytest.raises(TypeError):
            VolunteerCloud.from_spec(CloudSpec(), seed=1)
        with pytest.raises(TypeError):
            CloudSpec(engine="parallel")
