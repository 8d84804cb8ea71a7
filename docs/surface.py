#!/usr/bin/env python
"""Size of the program's surface, counted the same way for every PR.

Prints ``src/`` Python lines, the ``src`` modules none of whose
functions :data:`ENTRY_POINTS` call, the ``src`` functions none of them
enter and how many of those :data:`PINNED` keeps, dataclass fields on the
``*Config`` / ``*Spec`` classes (each an independently settable value),
how many of those fields nothing in the repository sets, how many of their
bool fields (on/off switches) only tests and examples set, CLI flags and
subcommands, how many of those flags nothing in the repository invokes,
the campaign cell kinds, the functions that build campaign cells and the
builtin grid names, so CHANGES.md can quote parent and change instead of
a hand count::

    python docs/surface.py
    python docs/surface.py --check    # exit 1 on an unreached module, an
                                      # unreached function not pinned, a
                                      # stale pin, a never-set field, a
                                      # switch only tests set or a
                                      # never-used flag (the CI gate)
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import pkgutil
import re
import socket
import sys
import tempfile
import threading
import time
import typing as _t
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Where an option counts as set (see :func:`never_set`).
SET_IN = ("src", "tests", "bench", "benchmarks", "examples", "README.md",
          "EXPERIMENTS.md", "DESIGN.md")
#: Where a switch counts as set by the product (see :func:`tested_switches`).
PRODUCT_IN = tuple(root for root in SET_IN
                   if root not in ("tests", "examples"))
#: Where a CLI flag counts as invoked (see :func:`never_used`).
USED_IN = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/protocol.md",
           ".github", ".claude", "tests", "bench", "benchmarks", "examples")
#: Deployment addresses stay configurable whether or not a recipe sets them.
DEPLOYMENT_FLAGS = ("--host", "--bind")


def option_classes(of_type: str | None = None) -> dict[str, list[str]]:
    """``module.Class`` -> field names of every *Config / *Spec dataclass
    (only the fields annotated *of_type*, when given)."""
    import repro

    found: dict[str, list[str]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if (name.endswith(("Config", "Spec"))
                    and isinstance(obj, type)
                    and obj.__module__ == info.name
                    and dataclasses.is_dataclass(obj)):
                found[f"{info.name}.{name}"] = [
                    f.name for f in dataclasses.fields(obj)
                    if of_type in (None, f.type)]
    return found


def _text(roots: tuple[str, ...], pattern: str) -> str:
    """Every file among *roots*, and every *pattern* file under the
    directories among them, as one string to search."""
    return "\n".join(
        path.read_text(encoding="utf-8", errors="ignore")
        for root in roots
        for path in ([ROOT / root] if (ROOT / root).is_file()
                     else sorted((ROOT / root).rglob(pattern)))
        if path.is_file() and path.suffix != ".pyc")


def never_set(classes: dict[str, list[str]],
              text: str | None = None) -> list[str]:
    """``Class.field`` for every option no line of *text* (default: the
    repository under :data:`SET_IN`) sets: nothing matches
    ``\\b<field>\\s*=``, as a keyword argument or an assignment would.
    One value in use means a constant."""
    text = _text(SET_IN, "*.py") if text is None else text
    return [f"{cls.rsplit('.', 1)[1]}.{field}"
            for cls, fields in sorted(classes.items()) for field in fields
            if not re.search(rf"\b{field}\s*=", text)]


def tested_switches(switches: dict[str, list[str]],
                  text: str | None = None) -> list[str]:
    """``Class.field`` for every switch (bool option) that no product line
    sets: :func:`never_set` over *text* (default: the repository under
    :data:`PRODUCT_IN`, which leaves out ``tests`` and ``examples``).
    The code behind a switch only a test turns on runs only in tests."""
    return never_set(switches,
                     _text(PRODUCT_IN, "*.py") if text is None else text)


def grid_builders() -> list[str]:
    """Functions of :mod:`repro.experiments.grids` that construct campaign
    cells themselves (every other grid function delegates to one)."""
    from repro.experiments import grids

    return [name for name, fn in vars(grids).items()
            if inspect.isfunction(fn) and fn.__module__ == grids.__name__
            and "CampaignCell(" in inspect.getsource(fn)]


def grid_names() -> list[str]:
    """The builtin grid names, as ``campaign --list-grids`` prints them."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["campaign", "--list-grids"])
    return [line.split()[0] for line in out.getvalue().splitlines()]


def subcommands(parser: argparse.ArgumentParser) -> int:
    """Top-level ``python -m repro <command>`` choices."""
    return sum(len(action.choices) for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))


def cli_flags(parser: argparse.ArgumentParser,
              command: str = "") -> list[tuple[str, str]]:
    """``(command, --flag)`` for every optional flag of *parser* and all
    its subcommands (not ``-h``)."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += cli_flags(sub, f"{command} {name}".strip())
        elif action.option_strings and action.dest != "help":
            found.append((command, action.option_strings[-1]))
    return found


def never_used(flags: list[tuple[str, str]]) -> list[str]:
    """``command --flag`` for every flag whose spelling appears in no doc,
    CI step, skill, test, example or bench under :data:`USED_IN`: nothing
    shows it working, so it is a library parameter, not a CLI surface."""
    text = _text(USED_IN, "*")
    return [f"{command} {flag}".strip() for command, flag in sorted(flags)
            if flag not in DEPLOYMENT_FLAGS
            and not re.search(rf"{flag}(?![\w-])", text)]


def _cli(*argv: object) -> None:
    """``python -m repro *argv*`` in this process."""
    from repro.cli import main

    code = main([str(arg) for arg in argv])
    if code != 0:
        raise RuntimeError(f"repro {' '.join(map(str, argv))}: exit {code}")


def _simulated_runs(scratch: Path) -> None:
    """``repro run``: BOINC-MR with the run summary and a CSV trace,
    original BOINC with a Chrome trace, and every builtin chaos plan
    audited into a summary file with a JSONL trace."""
    from repro.faults import BUILTIN_PLANS

    small = ("--nodes", 8, "--maps", 8, "--reducers", 2, "--input-gb", 0.1)
    _cli("run", "--list-plans")
    _cli("run", "--mr", *small, "--summary",
         "--trace-out", scratch / "run.csv", "--trace-format", "csv")
    _cli("run", *small, "--trace-out", scratch / "run.json")
    for plan in BUILTIN_PLANS:
        _cli("run", "--mr", *small, "--faults", plan,
             "--summary-out", scratch / f"{plan}.json",
             "--trace-out", scratch / f"{plan}.jsonl",
             "--trace-format", "jsonl")


def _real_runtime(scratch: Path) -> None:
    """``repro wordcount`` on real bytes."""
    _cli("wordcount", "--seed", 1, "--size-mb", 0.1, "--maps", 4,
         "--reducers", 2)


def _paper_grid(scratch: Path) -> None:
    """The paper grid, every cell inline, rendered into EXPERIMENTS.md's
    study blocks as ``docs/gen_experiments.py`` does; then the same store
    read by ``repro campaign --aggregate``, and ``--list-grids``."""
    import gen_experiments
    from repro import experiments
    from repro.campaign import run_campaign

    store = str(scratch / "paper.jsonl")
    run_campaign(experiments.paper_grid(), store, workers=0)
    gen_experiments.render_document(
        gen_experiments.DOCUMENT.read_text(encoding="utf-8"), store)
    _cli("campaign", "--aggregate", store)
    _cli("campaign", "--list-grids")


def _campaign_work(scratch: Path) -> None:
    """``repro campaign work`` against an in-process coordinator, on its
    own thread, serving one cell.  Every probe cell sleeps 0 s under a 30 s
    heartbeat, so none heartbeats however slow the box: what the probe
    reaches does not depend on timing."""
    from repro.campaign import (CampaignCell, CampaignCoordinator,
                                CampaignGrid, ResultStore)

    grid = CampaignGrid(name="probe", cells=(CampaignCell(
        kind="sleep", seed=0, params={"duration_s": 0.0}),))
    coordinator = CampaignCoordinator(
        grid, ResultStore(scratch / "work.jsonl"), spawn=0, heartbeat_s=30)
    served = threading.Thread(target=coordinator.run, daemon=True)
    served.start()
    while not coordinator.port:
        time.sleep(0.01)
    _cli("campaign", "work", f"127.0.0.1:{coordinator.port}")
    served.join()


def _distributed_campaign(scratch: Path) -> None:
    """``repro campaign coordinate`` over a TOML ``sleep`` grid (two seeds
    in one group) with one spawned worker writing a shard, then ``campaign
    merge`` of the shards and ``campaign diff`` of the merged store against
    the coordinator's, as CI's control-plane job runs them."""
    grid = scratch / "grid.toml"
    grid.write_text('name = "probe"\ndescription = "probe sleep grid"\n'
                    '[[cell]]\nkind = "sleep"\nseeds = [1, 2]\n'
                    'params = { duration_s = 0.0 }\n', encoding="utf-8")
    shards = scratch / "shards"
    _cli("campaign", "coordinate", "--grid", grid, "--spawn", 1,
         "--heartbeat", 30, "--shard-dir", shards,
         "--out", scratch / "dist.jsonl",
         "--summary-out", scratch / "summary.json")
    _cli("campaign", "merge", *sorted(shards.iterdir()),
         "--out", scratch / "merged.jsonl")
    _cli("campaign", "diff", scratch / "dist.jsonl", scratch / "merged.jsonl")


def _serve(scratch: Path) -> None:
    """``repro serve`` on its own thread, scraped once on ``GET /metrics``
    while it is up."""
    from repro.gateway import GatewayClient

    with socket.socket() as free:
        free.bind(("127.0.0.1", 0))
        port = free.getsockname()[1]
    served = threading.Thread(target=_cli, args=(
        "serve", "--host", "127.0.0.1", "--port", port, "--duration", 2))
    served.start()
    while True:  # a refused connect until the port is open
        if not served.is_alive():
            raise RuntimeError("probe: repro serve exited before serving")
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            break
        except ConnectionRefusedError:
            time.sleep(0.01)
    client = GatewayClient(f"127.0.0.1:{port}")
    try:
        client.request("GET", "/metrics")
    finally:
        client.close()
    served.join()


def _live_gateway(scratch: Path) -> None:
    """A self-hosted ``repro loadgen``, then one job per
    :data:`~repro.gateway.APP_REGISTRY` app on a live gateway, run by two
    ``repro volunteer`` threads."""
    from repro.gateway import APP_REGISTRY, GatewayClient, GatewayServer

    _cli("loadgen", "--clients", 8, "--duration", 1, "--maps", 4,
         "--reducers", 2, "--out", scratch / "load.json")
    gateway = GatewayServer.in_thread()
    client = GatewayClient(gateway.address)
    try:
        for app in APP_REGISTRY:
            client.submit_job(app, app, 20_000, 1, 4, 2)
        volunteers = [threading.Thread(target=_cli, args=(
            "volunteer", "--address", gateway.address, "--name", f"probe{k}",
            "--idle-limit", 25)) for k in range(2)]
        for thread in volunteers:
            thread.start()
        for app in APP_REGISTRY:
            while client.job_status(app)["state"] == "running":
                if not any(thread.is_alive() for thread in volunteers):
                    raise RuntimeError(f"probe job {app!r} left unfinished")
                time.sleep(0.01)
            client.job_output(app)
        for thread in volunteers:
            thread.join()
    finally:
        client.close()
        gateway.close()


#: What the reachability probe runs, each in this process and in order.
ENTRY_POINTS = (_simulated_runs, _real_runtime, _paper_grid, _campaign_work,
                _distributed_campaign, _live_gateway, _serve)

#: ``module:qualname`` -> what keeps a function no entry point reaches:
#: a test node id, or a README, ``bench/`` or ``benchmarks/`` file that
#: calls it.
#: Anything else no entry point reaches is deleted with its own tests.
PINNED: dict[str, str] = {
    # bench/ calls it.
    "sim.engine:Simulator.timeout": "bench/workloads.py",
    "sim.engine:Simulator.peak_pending": "bench/workloads.py",
    "gateway.client:GatewayClient.health": "bench/workloads.py",
    "gateway.client:GatewayClient.download": "bench/workloads.py",
    "gateway.client:GatewayClient.upload": "bench/workloads.py",
    "gateway.jobs:decode_payload": "bench/workloads.py",
    "experiments.grids:table1_grid": "bench/workloads.py",
    "obs.export:chrome_trace_json": "bench/workloads.py",
    "sim.events:Timeout.__init__":
        "tests/sim/test_events.py::test_timeout_fires_at_delay",
    "sim.events:Timeout._fire":
        "tests/sim/test_events.py::test_timeout_fires_at_delay",
    # benchmarks/ calls it.
    "experiments.scaling:scale_out": "benchmarks/test_scale.py",
    "experiments.scaling:build_scale_cloud": "benchmarks/test_scale.py",
    # A README doctest calls it.
    "core.system:CloudSpec.replace": "README.md",
    "volunteers.traces:AvailabilityTrace.periods": "README.md",
    # A test oracle or differential calls it.
    "sim.engine:Simulator.any_of":
        "tests/boinc/test_rpc_differential.py::"
        "test_volunteers_match_the_anyof_wait_and_the_rpc_process",
    "sim.events:AnyOf._child_fired":
        "tests/boinc/test_rpc_differential.py::"
        "test_volunteers_match_the_anyof_wait_and_the_rpc_process",
    "sim.engine:Simulator.step":
        "tests/sim/test_engine_differential.py::"
        "test_same_dispatch_order_and_observables_as_the_single_heap",
    "sim.engine:Simulator.peek":
        "tests/sim/test_engine_differential.py::"
        "test_same_dispatch_order_and_observables_as_the_single_heap",
    "sim.engine:Simulator.stop":
        "tests/sim/test_engine_differential.py::"
        "test_same_dispatch_order_and_observables_as_the_single_heap",
    "gateway.client:GatewayClient._once":
        "tests/gateway/test_client_differential.py::"
        "test_a_whole_reply_keeps_the_socket_open_for_the_next",
    "net.flows:Flow.eta":
        "tests/net/test_coalescing.py::"
        "test_every_read_and_completion_equals_the_eager_oracle",
    "net.flows:Flow.rate":
        "tests/net/test_coalescing.py::"
        "test_every_read_and_completion_equals_the_eager_oracle",
    "obs.spans:Span.duration":
        "tests/obs/test_export_differential.py::"
        "test_same_records_same_spans_and_same_bytes",
    "obs.spans:SpanBuilder.open_count":
        "tests/obs/test_export_differential.py::"
        "test_same_records_same_spans_and_same_bytes",
    "runtime.api:FnApp.__init__":
        "tests/runtime/test_map_task_differential.py::"
        "test_map_task_equals_two_pass_reference",
    "runtime.api:FnApp.map":
        "tests/runtime/test_map_task_differential.py::"
        "test_map_task_equals_two_pass_reference",
    "runtime.apps.wordcount:WordCount.map":
        "tests/runtime/test_map_task_differential.py::"
        "test_map_task_equals_two_pass_reference",
    "runtime.apps.wordcount:WordCount.combine":
        "tests/runtime/test_map_task_differential.py::"
        "test_map_task_equals_two_pass_reference",
    "workloads.corpus:tag_documents":
        "tests/test_workloads.py::TestPinnedBytes::test_map_blobs_and_output",
    # It runs only in a forked child, where the profile hook cannot see it.
    "campaign.runner:_child_main":
        "tests/campaign/test_coordinator.py::TestCoordinatorBasics::"
        "test_distributed_equals_sequential",
    "campaign.worker:worker_entry":
        "tests/campaign/test_coordinator.py::TestCoordinatorBasics::"
        "test_distributed_equals_sequential",
    "campaign.cells:_execute_sleep":
        "tests/campaign/test_coordinator.py::TestCoordinatorBasics::"
        "test_distributed_equals_sequential",
    "campaign.runner:_describe":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_quarantine_after_retry_budget",
    # A declared interface: a Protocol or base-class method an app or a
    # strategy implements.
    "boinc.client:InputFetcher.fetch":
        "tests/core/test_policies.py::TestInputFetcher",
    "boinc.client:OutputPolicy.handle":
        "tests/core/test_policies.py::TestOutputPolicy",
    "boinc.client:Executor.execute":
        "tests/boinc/test_client.py::TestFailureRecovery::"
        "test_failed_task_reported_and_replaced",
    "runtime.api:MapReduceApp.map":
        "tests/runtime/test_engine.py::TestGrep::test_matchcount",
    "runtime.api:MapReduceApp.reduce":
        "tests/runtime/test_engine.py::TestGrep::test_matchcount",
    # Live code the probe's inputs do not take: a client with no executor
    # given, a scenario cell, a resumed campaign, a heartbeat (its cells
    # sleep 0 s under a 30 s heartbeat) and --strict.
    "boinc.client:GenericExecutor.execute":
        "tests/boinc/test_client.py::TestFailureRecovery::"
        "test_failed_task_reported_and_replaced",
    "campaign.cells:scenario_specs":
        "tests/campaign/test_grids_and_analysis.py::TestScenarioCellParams::"
        "test_every_scalar_spec_field_is_a_cell_param",
    "campaign.cells:_scalar_fields":
        "tests/campaign/test_grids_and_analysis.py::TestScenarioCellParams::"
        "test_every_scalar_spec_field_is_a_cell_param",
    "campaign.cells:_execute_scenario":
        "tests/campaign/test_runner.py::TestDeterminism::"
        "test_payload_matches_direct_execute",
    "campaign.store:ResultStore.completed_keys":
        "tests/campaign/test_store.py::TestResultStore::"
        "test_completed_keys_excludes_failures",
    "campaign.coordinator:CampaignCoordinator._on_heartbeat":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_malformed_messages_get_an_error_reply",
    "gateway.loadgen:LoadReport.clean":
        "tests/gateway/test_loadgen.py::TestFleetSharesTheVolunteerCycle::"
        "test_single_poll_client_still_reports_its_work",
    "runtime.api:FnApp.reduce":
        "tests/runtime/test_engine.py::TestGrep::"
        "test_grep_intermediate_smaller_than_wordcount",
    # Safety code: error replies, failure and recovery paths, cleanup.
    "campaign.coordinator:CampaignCoordinator._quarantine":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_quarantine_after_retry_budget",
    "campaign.grid:CampaignCell.from_spec":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_quarantine_after_retry_budget",
    "campaign.grid:CampaignCell.label":
        "tests/campaign/test_coordinator.py::TestFailureRecovery::"
        "test_quarantine_after_retry_budget",
    "campaign.lease:LeaseTable.touch": "tests/campaign/test_lease.py",
    "campaign.lease:LeaseTable.fail_worker":
        "tests/campaign/test_lease.py::TestWorkerFailure",
    "campaign.lease:LeaseTable._steal_candidate":
        "tests/campaign/test_lease.py::TestStealing",
    "campaign.lease:LeaseTable.report_error": "tests/campaign/test_lease.py",
    "campaign.lease:LeaseTable._revoke":
        "tests/campaign/test_lease.py::TestStealing::"
        "test_first_result_revokes_the_loser",
    "campaign.lease:LeaseTable._lose_lease":
        "tests/campaign/test_lease.py::TestWorkerFailure",
    "campaign.lease:LeaseTable._account_loss":
        "tests/campaign/test_lease.py::TestWorkerFailure",
    "core.job:MapReduceJob.fail":
        "tests/core/test_job.py::TestJobState::test_fail_after_done_is_noop",
    "core.jobtracker:JobTracker._on_wu_error":
        "tests/core/test_barrier.py::"
        "test_barrier_invariants_hold_after_every_step",
    "gateway.jobs:GatewayJobTracker._on_wu_error":
        "tests/core/test_barrier.py::"
        "test_barrier_invariants_hold_after_every_step",
    "gateway.jobs:JobSignal.fail":
        "tests/gateway/test_server.py::TestBadReportFailsOnlyItsJob",
    "faults.audit:Violation.__str__":
        "tests/test_cli.py::TestChaosCommand::"
        "test_failed_job_becomes_a_diagnosis",
    "faults.injector:FaultInjector._apply_host_fault.<locals>.undo":
        "tests/faults/test_injector.py::TestHostFaults::"
        "test_link_flap_undo_spares_churned_host",
    "faults.injector:FaultInjector._apply_dataserver_slow.<locals>.undo":
        "tests/faults/test_injector.py::TestSingletonFaults::"
        "test_dataserver_slow_factor_restored",
    "faults.plans:load_plan":
        "tests/faults/test_spec.py::TestTomlLoading::test_load_plan",
    "gateway.client:GatewayError.__init__":
        "tests/gateway/test_batch_differential.py::"
        "test_a_refused_batch_leaves_the_socket_in_step",
    "gateway.client:GatewayError.retryable":
        "tests/gateway/test_batch_differential.py::"
        "test_a_refused_batch_leaves_the_socket_in_step",
    "gateway.client:GatewayClient._decode_error":
        "tests/gateway/test_batch_differential.py::"
        "test_a_refused_batch_leaves_the_socket_in_step",
    "gateway.client:retry_delay":
        "tests/boinc/test_client.py::TestBackoff::"
        "test_live_retry_delay_is_the_same_formula",
    "gateway.protocol:error_body":
        "tests/gateway/test_protocol.py::TestErrors::"
        "test_error_body_roundtrip",
    "gateway.server:GatewayServer._error":
        "tests/gateway/test_server.py::TestBasics::test_bad_request_body",
    "gateway.server:GatewayServer._healthz":
        "tests/gateway/test_server.py::TestBasics::test_healthz",
    "gateway.server:_Connection._refuse":
        "tests/gateway/test_server.py::TestSlowDrip::"
        "test_a_drip_past_the_deadline_is_refused_on_time",
    "gateway.server:_Connection._close":
        "tests/gateway/test_framing_differential.py::"
        "test_a_live_server_answers_or_closes_cleanly_whatever_arrives",
    "gateway.server:_Connection.pause_writing":
        "tests/gateway/test_server.py::TestPipeliningAndBackpressure::"
        "test_requests_wait_while_their_replies_are_not_read",
    "gateway.server:_Connection.resume_writing":
        "tests/gateway/test_server.py::TestPipeliningAndBackpressure::"
        "test_requests_wait_while_their_replies_are_not_read",
    "net.topology:Network.flow_hosts":
        "tests/faults/test_audit.py::TestViolationDetection::"
        "test_leaked_flow_detected",
    "net.transfer:SimSemaphore.cancel":
        "tests/net/test_transfer.py::TestSemaphoreSettle::"
        "test_cancel_refuses_granted_event",
    "obs.export:_scalar_json":
        "tests/obs/test_export_differential.py::"
        "test_same_records_same_spans_and_same_bytes",
    "obs.spans:SpanBuilder._on_failed":
        "tests/obs/test_spans.py::TestFailureMarkers::"
        "test_failed_task_emits_error_instant_then_closes_on_report",
    "obs.spans:SpanBuilder._on_timeout":
        "tests/obs/test_spans.py::TestInstants::"
        "test_daemon_events_route_to_daemon_tracks",
    "obs.metrics:Sampler.stop":
        "tests/obs/test_metrics.py::TestSampler::test_stop_halts_sampling",
    "obs.probes:SelfProfiler.uninstall":
        "tests/obs/test_probes.py::TestSelfProfiler::"
        "test_uninstall_restores_fast_path",
    "sim.events:Event.__repr__":
        "tests/sim/test_events.py::test_double_trigger_rejected",
    # A test reads state through it, and the test checks more than it: the
    # accessor goes when those tests no longer need it, not by moving its
    # body into them.
    "boinc.client:make_client": "tests/boinc/test_client_more.py",
    "boinc.model:Database.workunits_by_job": "tests/core/test_jobtracker.py",
    "campaign.lease:LeaseTable.count":
        "tests/campaign/test_runner.py::TestProgressAndMetrics::"
        "test_metrics_registry_counts",
    "campaign.lease:LeaseTable.live_workers":
        "tests/campaign/test_lease.py::TestWorkerFailure::"
        "test_dead_worker_can_reregister",
    "core.interclient:PeerStore.serving_count":
        "tests/core/test_system.py::TestEndToEnd::"
        "test_serving_store_cleared_after_job",
    "gateway.server:GatewayHandle.submit_job":
        "tests/gateway/test_server.py::TestEndToEnd::"
        "test_single_volunteer_completes_job",
    "gateway.server:GatewayHandle.submit_job.<locals>._submit":
        "tests/gateway/test_server.py::TestEndToEnd::"
        "test_single_volunteer_completes_job",
    "gateway.server:GatewayHandle.result":
        "tests/gateway/test_server.py::TestEndToEnd::"
        "test_single_volunteer_completes_job",
    "net.supernode:SupernodeOverlay.attachment_counts":
        "tests/test_properties_more.py::test_overlay_attachment_invariants",
    "net.topology:Network.host":
        "tests/net/test_topology.py::TestHosts::test_add_host",
    "obs.metrics:Gauge.add":
        "tests/obs/test_metrics.py::TestGauge::test_set_and_add",
    "obs.metrics:Histogram.quantile":
        "tests/obs/test_metrics.py::TestHistogram::test_p2_median_converges",
    "obs.metrics:MetricsRegistry.__contains__":
        "tests/obs/test_probes.py::TestStandardProbes::"
        "test_registers_expected_gauges",
    "obs.metrics:MetricsRegistry.get":
        "tests/gateway/test_server.py::TestRouteBinding::"
        "test_latency_lands_in_the_declared_family",
    "runtime.engine:JobReport.map_tasks":
        "tests/runtime/test_engine.py::TestWordCount::test_task_reports",
    "sim.events:Event.ok": "tests/boinc/test_client_more.py",
    "sim.trace:Tracer.first": "tests/boinc/test_client.py::TestBackoff",
    "sim.trace:Tracer.last":
        "tests/sim/test_rng_trace.py::TestTracer::test_first_and_last",
}


#: Code objects no ``def`` names.  3.11 compiles a comprehension to one
#: of its own and 3.12 inlines it, so counting them would make the
#: function count depend on the interpreter.
ANONYMOUS = ("<lambda>", "<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>")


def functions(source: bytes | str, filename: str) -> list[tuple[str, int]]:
    """``(qualname, first line)`` of every function, method and nested
    function or closure that *source* defines, not the :data:`ANONYMOUS`
    ones; the first line is the first decorator's, as the interpreter
    numbers it."""
    found, stack = [], [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        for inner in code.co_consts:
            if inspect.iscode(inner):
                if (inner.co_flags & inspect.CO_NEWLOCALS
                        and inner.co_name not in ANONYMOUS):
                    found.append((inner.co_qualname, inner.co_firstlineno))
                stack.append(inner)
    return sorted(found, key=lambda fn: fn[1])


def probe() -> set[tuple[str, str, int]]:
    """``(file, qualname, first line)`` of every function code object
    :data:`ENTRY_POINTS` enter.

    Their standard output is dropped, and every thread runs under a
    profile hook that notes each code object entered.  A module body is
    not a function, so an import alone reaches nothing; a function called
    while importing (``col`` building a study's columns) does, so call
    this before anything imports ``repro``.  Work done in a child process
    (``--spawn``, a worker's forked cell) is not seen, which is why the
    paper grid runs inline."""
    seen: set = set()

    def hook(frame: _t.Any, event: str, _arg: _t.Any) -> None:
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        with (tempfile.TemporaryDirectory() as scratch,
              contextlib.redirect_stdout(io.StringIO())):
            for entry in ENTRY_POINTS:
                entry(Path(scratch))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(code.co_filename, code.co_qualname, code.co_firstlineno)
            for code in seen if code.co_flags & inspect.CO_NEWLOCALS}


def _modules() -> dict[str, list[tuple[str, int]]]:
    """Each ``src`` file path -> its :func:`functions`."""
    return {str(path): functions(path.read_bytes(), str(path))
            for path in sorted(SRC.rglob("*.py"))}


def _module_name(path: str) -> str:
    """``sim.engine`` for ``src/repro/sim/engine.py``; ``campaign`` for
    that package's ``__init__.py``."""
    parts = Path(path).relative_to(SRC / "repro").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def unreached_modules(reached: set[tuple[str, str, int]]) -> list[str]:
    """``src`` modules that define functions, none of which the
    :func:`probe` that gave *reached* entered."""
    files = {file for file, _, _ in reached}
    return [str(Path(path).relative_to(SRC / "repro"))
            for path, defined in _modules().items()
            if defined and path not in files]


def unreached_functions(reached: set[tuple[str, str, int]]) -> list[str]:
    """``module:qualname`` of every :func:`functions` entry in ``src``
    that the :func:`probe` that gave *reached* never entered."""
    return [f"{_module_name(path)}:{qualname}"
            for path, defined in _modules().items()
            for qualname, line in defined
            if (path, qualname, line) not in reached]


def _pin_problem(name: str, by: str) -> str | None:
    """Why *by* cannot pin function *name*: a test node id
    (``path::Class::test``) naming no test, or a path that does not
    exist or never mentions the function; ``None`` when it can."""
    path, *parts = by.split("::")
    if not (ROOT / path).is_file():
        return f"no file {path}"
    source = (ROOT / path).read_text(encoding="utf-8")
    if not parts:
        short = name.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
        return (None if re.search(rf"\b{re.escape(short)}\b", source)
                else f"{path} never mentions {short}")
    scope: list = ast.parse(source).body
    for part in parts:
        part = part.split("[", 1)[0]
        node = next((node for node in scope if getattr(node, "name", None)
                     == part), None)
        if node is None:
            return f"no test {by}"
        scope = node.body
    return None


def pin_problems(unreached: list[str],
                 pins: dict[str, str] | None = None) -> list[str]:
    """One line per unreached function *pins* (default :data:`PINNED`)
    leaves out, and per stale pin: its function is reached or gone, or
    its test or file cannot pin it (:func:`_pin_problem`)."""
    pins = PINNED if pins is None else pins
    defined = {f"{_module_name(path)}:{qualname}"
               for path, found in _modules().items()
               for qualname, _ in found}
    problems = [f"{name}: no entry point reaches it and it is not pinned"
                for name in unreached if name not in pins]
    for name, by in pins.items():
        if name not in defined:
            problems.append(f"{name}: pinned, but no such function")
        elif name not in unreached:
            problems.append(f"{name}: pinned, but an entry point reaches it")
        elif problem := _pin_problem(name, by):
            problems.append(f"{name}: pinned by {by}, but {problem}")
    return problems


if __name__ == "__main__":
    reached = probe()
    unreached = unreached_modules(reached)
    dead = unreached_functions(reached)
    problems = pin_problems(dead)

    from repro.cli import build_parser

    classes = option_classes()
    print("src python lines:   ", sum(len(p.read_bytes().splitlines())
                                      for p in SRC.rglob("*.py")))
    print("src modules no entry point reaches:", len(unreached), *unreached)
    print("src functions no entry point reaches:", len(dead),
          f"(pinned {sum(name in PINNED for name in dead)})")
    for line in problems:
        print("  ", line)
    print("config/spec fields: ", sum(map(len, classes.values())),
          "on", len(classes), "classes")
    unset = never_set(classes)
    print("never-set fields:   ", len(unset), *unset)
    tested = tested_switches(option_classes("bool"))
    print("switches only tests set:", len(tested), *tested)
    parser = build_parser()
    flags = cli_flags(parser)
    print("cli flags:          ", len(flags))
    unused = never_used(flags)
    print("never-used flags:   ", len(unused), ", ".join(unused))
    print("cli subcommands:    ", subcommands(parser))
    from repro.campaign import CELL_KINDS

    print("campaign cell kinds:", len(CELL_KINDS), ", ".join(CELL_KINDS))
    builders = grid_builders()
    print("grid builders:      ", len(builders), ", ".join(builders))
    grids = grid_names()
    print("builtin grids:      ", len(grids), ", ".join(grids))
    for name, fields in sorted(classes.items()):
        print(f"  {len(fields):3d}  {name}")
    if "--check" in sys.argv[1:] and (unreached or problems or unset
                                      or tested or unused):
        sys.exit("surface: a module, a function, an option or a flag nothing "
                 "uses, a switch only tests set, or a stale pin (see above)")
