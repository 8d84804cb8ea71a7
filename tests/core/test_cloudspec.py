"""CloudSpec construction API."""

import dataclasses
import importlib

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


class TestNeverSetOptionsAreConstants:
    """A field nothing in the repository set had one value in use: it is
    a module constant beside its reader now (``docs/surface.py`` counts
    the next one).  No alias, no accepted-and-ignored keyword."""

    @pytest.mark.parametrize("path,keyword", [
        ("repro.boinc.server.ServerConfig", "feeder_period_s"),
        ("repro.boinc.server.ServerConfig", "transitioner_period_s"),
        ("repro.boinc.server.ServerConfig", "validator_period_s"),
        ("repro.boinc.server.ServerConfig", "assimilator_period_s"),
        ("repro.boinc.client.ClientConfig", "max_peer_upload_conns"),
        ("repro.boinc.client.ClientConfig", "max_peer_download_conns"),
        ("repro.boinc.client.ClientConfig", "transfer_retries"),
        ("repro.boinc.client.ClientConfig", "transfer_backoff_min_s"),
        ("repro.boinc.client.ClientConfig", "transfer_backoff_max_s"),
        ("repro.core.config.BoincMRConfig", "fetch_poll_attempts"),
        ("repro.net.nat.TraversalConfig", "reversal_setup_s"),
        ("repro.net.nat.TraversalConfig", "hole_punch_setup_s"),
        ("repro.net.nat.TraversalConfig", "relay_setup_s"),
        ("repro.net.nat.TraversalConfig", "punch_success"),
        ("repro.gateway.server.GatewayConfig", "feeder_cache_size"),
    ])
    def test_keyword_is_a_type_error(self, path, keyword):
        module, _, name = path.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        assert keyword not in {f.name for f in dataclasses.fields(cls)}
        with pytest.raises(TypeError):
            cls(**{keyword: 1})

    def test_unloaded_xml_job_format_is_gone(self):
        with pytest.raises(ImportError):
            from repro.core import load_jobtracker_xml  # noqa: F401
        with pytest.raises(ImportError):
            import repro.core.xmlconfig  # noqa: F401

    @pytest.mark.parametrize("module,name", [
        ("repro.volunteers", "TraceChurnController"),
        ("repro.volunteers", "load_traces_csv"),
        ("repro.volunteers", "ChurnController.manage_all"),
        ("repro.sim", "IntervalAccumulator"),
        ("repro.boinc.client", "Client.shutdown"),
    ])
    def test_second_mechanisms_and_unused_capabilities_are_gone(self, module,
                                                                name):
        *owners, last = name.split(".")
        holder = importlib.import_module(module)
        for owner in owners:
            holder = getattr(holder, owner)
        assert not hasattr(holder, last)

    def test_a_host_leaves_and_returns_one_way(self):
        """``go_offline()`` / ``come_online()`` and two declared attributes;
        nothing sets, or answers to, the old privates."""
        from repro.boinc.server import SchedulerCore

        client = VolunteerCloud.from_spec(CloudSpec(n_nodes=1)).clients[0]
        assert client.offline is False and client.peer_store is None
        for name in ("_stopped", "_paused"):
            assert not hasattr(client, name)
        assert not hasattr(SchedulerCore(), "on_upload")

    @pytest.mark.parametrize("argv", [
        ["loadgen", "--corpus-kb", "10"],
        ["loadgen", "--replication", "1"],
        ["loadgen", "--quorum", "1"],
        ["volunteer", "--address", "h:1", "--flops", "1e9"],
        ["volunteer", "--address", "h:1", "--poll", "0.1"],
        ["campaign", "work", "h:1", "--max-cells", "1"],
        ["campaign", "coordinate", "--steal-after", "1"],
        ["campaign", "coordinate", "--timeout", "1"],
        ["campaign", "coordinate", "--wall-limit", "1"],
    ], ids=lambda argv: argv[-2])
    def test_flag_nothing_invoked_is_a_usage_error(self, argv, capsys):
        from repro.cli import build_parser

        build_parser().parse_args(argv[:-2])  # the command itself parses
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
