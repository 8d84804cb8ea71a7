"""CloudSpec construction API."""

import dataclasses
import importlib
import math

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

    @pytest.mark.parametrize("value", [2.0, -0.5, 5.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["fast_node_fraction", "byzantine_rate"])
    def test_a_fraction_outside_0_1_is_refused_by_name(self, name, value):
        # Both are scenario-cell params a TOML grid sets: 2.0 used to make
        # every node fast, NaN to die inside VolunteerCloud.__init__.
        with pytest.raises(ValueError, match=name):
            CloudSpec(n_nodes=4, **{name: value})

    def test_a_scenario_cell_with_a_bad_fraction_fails_before_running(self):
        from repro.campaign.cells import scenario_specs

        job = {"n_maps": 4, "n_reducers": 2}
        with pytest.raises(ValueError, match="byzantine_rate"):
            scenario_specs({"seed": 1, "params": {**job,
                                                  "byzantine_rate": 5.0}})
        spec, _ = scenario_specs({"seed": 1, "params": {
            **job, "n_nodes": 4, "fast_node_fraction": 1.0,
            "byzantine_rate": 0.0}})
        assert spec.fast_node_fraction == 1.0

    def test_replace(self):
        spec = CloudSpec(seed=4)
        other = dataclasses.replace(spec, server_link=SERVER_LINK)
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
            dataclasses.replace(CloudSpec(), allocator="full")

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
    """A field with one value in use (nothing set it, only tests did, or
    the product only to its default) is a module constant beside its
    reader now (``docs/surface.py`` counts the next one).  No alias, no
    accepted-and-ignored keyword."""

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
        ("repro.boinc.client.ClientConfig", "ncpus"),
        ("repro.boinc.client.ClientConfig", "work_buffer_min_s"),
        ("repro.boinc.client.ClientConfig", "work_buffer_target_s"),
        ("repro.boinc.client.ClientConfig", "backoff_min_s"),
        ("repro.boinc.client.ClientConfig", "backoff_jitter"),
        ("repro.boinc.client.ClientConfig", "compute_jitter"),
        ("repro.boinc.client.ClientConfig", "initial_stagger_s"),
        ("repro.boinc.server.ServerConfig", "rpc_capacity"),
        ("repro.boinc.server.ServerConfig", "rpc_process_s"),
        ("repro.boinc.server.ServerConfig", "max_results_per_rpc"),
        ("repro.boinc.server.ServerConfig", "speculative_factor"),
        ("repro.boinc.server.ServerConfig", "speculative_min_elapsed_s"),
        ("repro.boinc.server.ServerConfig", "adaptive_spot_check_rate"),
        ("repro.boinc.server.ServerConfig", "adaptive_trust_threshold"),
        ("repro.core.config.BoincMRConfig", "serve_timeout_s"),
        ("repro.core.config.BoincMRConfig", "peer_retries"),
        ("repro.core.config.BoincMRConfig", "fetch_poll_s"),
        ("repro.net.nat.TraversalConfig", "direct_setup_s"),
        ("repro.gateway.server.GatewayConfig", "request_delay_s"),
        ("repro.gateway.server.GatewayConfig", "retry_after_s"),
        ("repro.gateway.server.GatewayConfig", "max_results_per_rpc"),
        ("repro.gateway.loadgen.LoadConfig", "polls_per_client"),
        ("repro.gateway.loadgen.LoadConfig", "app"),
        ("repro.gateway.loadgen.LoadConfig", "corpus_bytes"),
        ("repro.gateway.loadgen.LoadConfig", "replication"),
        ("repro.gateway.loadgen.LoadConfig", "quorum"),
        ("repro.gateway.loadgen.LoadConfig", "drain_s"),
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

    @pytest.mark.parametrize("module", [
        "repro.core.workflow",
        "repro.runtime.calibrate",
        "repro.runtime.apps.sortapp",
    ])
    def test_modules_no_entry_point_reached_are_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize("module,name", [
        ("repro.volunteers", "TraceChurnController"),
        ("repro.volunteers", "load_traces_csv"),
        ("repro.volunteers", "ChurnController.manage_all"),
        ("repro.sim", "IntervalAccumulator"),
        ("repro.boinc.client", "Client.shutdown"),
        ("repro.core", "MapReduceWorkflow"),
        ("repro.core", "WorkflowStage"),
        ("repro.core", "pipeline"),
        ("repro.runtime", "profile_app"),
        ("repro.runtime", "measure_cost_model"),
        ("repro.runtime", "Measurement"),
        ("repro.runtime.apps", "DistributedSort"),
        ("repro.runtime.apps", "DistributedGrep"),
        ("repro.runtime.apps", "sample_boundaries"),
        ("repro.runtime.apps", "merge_sorted_output"),
        ("repro.boinc", "Database.requeue"),
        ("repro.boinc", "OutputData.total_size"),
        ("repro.net", "Network.transfer_and_wait"),
        ("repro.net", "Host.behind_nat"),
        ("repro.core", "PeerStore.renew"),
        ("repro.core", "PeerStore.renew_job"),
        ("repro.runtime", "JobReport.reduce_tasks"),
        ("repro.volunteers", "AvailabilityTrace.available_at"),
        ("repro.volunteers", "AvailabilityTrace.total_available"),
        ("repro.volunteers", "AvailabilityTrace.availability_fraction"),
        ("repro.boinc.client", "GenericExecutor"),
        ("repro.obs", "SelfProfiler.install"),
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
        client = VolunteerCloud.from_spec(CloudSpec(n_nodes=1)).clients[0]
        assert client.offline is False and client.peer_store is None
        for name in ("_stopped", "_paused"):
            assert not hasattr(client, name)
        assert not hasattr(client.server, "on_upload")

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
