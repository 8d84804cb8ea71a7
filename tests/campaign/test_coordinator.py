"""Integration tests for the campaign executor (the lease plane).

These spawn real worker processes against a real TCP coordinator, so
they are the slowest campaign tests; the grids stay tiny and the
heartbeat short to keep each under a few seconds.  Behaviour every
front end must share is parametrized over :data:`FRONT_ENDS`.
"""

import json
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignCoordinator,
    CampaignGrid,
    CampaignWorker,
    ResultStore,
    diff_stores,
    merge_stores,
    run_campaign,
)


def _sleep_grid(n: int, duration_s: float = 0.05,
                name: str = "g") -> CampaignGrid:
    return CampaignGrid(name=name, cells=tuple(
        CampaignCell(kind="sleep", seed=i, params={"duration_s": duration_s})
        for i in range(n)))


#: The executor's front ends: a bare coordinator with spawned workers
#: (what ``repro campaign coordinate`` builds), and ``run_campaign`` over
#: loopback workers and over in-process function calls.
FRONT_ENDS = ("coordinator", "local", "inline")


def _run(how: str, grid: CampaignGrid, path, **kwargs):
    if how == "coordinator":
        return CampaignCoordinator(grid, ResultStore(path), spawn=2,
                                   heartbeat_s=0.2, **kwargs).run()
    return run_campaign(grid, str(path),
                        workers={"local": 2, "inline": 0}[how], **kwargs)


def _serve(coordinator: CampaignCoordinator):
    """Run *coordinator* on a thread; returns (thread, reports) once the
    control socket is bound (``port`` stays 0 until then)."""
    reports = []
    thread = threading.Thread(
        target=lambda: reports.append(coordinator.run()), daemon=True)
    thread.start()
    for _ in range(200):
        if coordinator.port:
            break
        time.sleep(0.01)
    return thread, reports


class TestCoordinatorBasics:
    def test_spawned_workers_complete_every_cell(self, tmp_path):
        grid = _sleep_grid(6)
        store = ResultStore(tmp_path / "out.jsonl")
        report = CampaignCoordinator(
            grid, store, spawn=2, heartbeat_s=0.2).run()
        assert report.ok and report.ran == 6 and report.failed == 0
        loaded = store.load()
        assert len(loaded) == 6 and all(r.ok for r in loaded.values())
        # provenance rides in meta, not in the deterministic payload
        assert all("worker" in r.meta for r in loaded.values())

    def test_external_worker_against_unspawned_coordinator(self, tmp_path):
        grid = _sleep_grid(3)
        coordinator = CampaignCoordinator(
            grid, ResultStore(tmp_path / "out.jsonl"),
            spawn=0, heartbeat_s=0.2)
        thread, reports = _serve(coordinator)
        completed = CampaignWorker("127.0.0.1", coordinator.port,
                                   worker_id="ext0").run()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert completed == 3 and reports[0].ok

    @pytest.mark.parametrize("how", FRONT_ENDS)
    def test_resume_skips_completed_cells(self, how, tmp_path):
        grid = _sleep_grid(4)
        first = _run(how, grid, tmp_path / "out.jsonl")
        assert first.ran == 4
        second = _run(how, grid, tmp_path / "out.jsonl", resume=True)
        assert second.ran == 0 and second.skipped == 4 and second.ok

    def test_distributed_equals_sequential(self, tmp_path):
        grid = _sleep_grid(5)
        CampaignCoordinator(grid, ResultStore(tmp_path / "dist.jsonl"),
                            spawn=2, heartbeat_s=0.2).run()
        run_campaign(grid, str(tmp_path / "seq.jsonl"), workers=0)
        assert diff_stores(tmp_path / "dist.jsonl",
                           tmp_path / "seq.jsonl") == []

    def test_summary_shape(self, tmp_path):
        grid = _sleep_grid(2)
        coordinator = CampaignCoordinator(
            grid, ResultStore(tmp_path / "out.jsonl"),
            spawn=1, heartbeat_s=0.2)
        coordinator.run()
        summary = coordinator.summary()
        json.dumps(summary)  # must be JSON-able (the CI artifact)
        assert summary["completed"] == 2
        assert summary["leases"]["granted"] >= 2
        assert summary["quarantined"] == []

    def test_validation(self, tmp_path):
        grid = _sleep_grid(1)
        store = ResultStore(tmp_path / "out.jsonl")
        with pytest.raises(ValueError, match="spawn"):
            CampaignCoordinator(grid, store, spawn=-1)
        with pytest.raises(ValueError, match="heartbeat_s"):
            CampaignCoordinator(grid, store, heartbeat_s=0.0)


class TestFailureRecovery:
    def test_sigkilled_workers_mid_cell_every_cell_completes(self, tmp_path):
        """The issue's acceptance invariant: 3 workers, kills mid-cell,
        campaign still completes every cell and the merged per-key
        payloads equal a sequential run."""
        grid = _sleep_grid(9, duration_s=0.4, name="chaos")
        store = ResultStore(tmp_path / "dist.jsonl")
        coordinator = CampaignCoordinator(
            grid, store, spawn=3, heartbeat_s=0.2, retries=3,
            chaos_kills=2, chaos_interval_s=0.4,
            shard_dir=tmp_path / "shards")
        report = coordinator.run()
        assert report.failed == 0 and report.ran == 9
        summary = coordinator.summary()
        assert summary["chaos_kills"] == 2
        assert summary["workers_failed"] >= 2
        assert summary["leases"]["reclaimed"] >= 1
        assert report.reclaimed == summary["leases"]["reclaimed"]
        run_campaign(grid, str(tmp_path / "seq.jsonl"), workers=0)
        # coordinator's authoritative store matches sequential ...
        assert diff_stores(tmp_path / "dist.jsonl",
                           tmp_path / "seq.jsonl") == []
        # ... and so do the merged per-worker shards
        shards = sorted((tmp_path / "shards").glob("*.jsonl"))
        assert len(shards) >= 3
        merge_stores(tmp_path / "merged.jsonl", shards)
        assert diff_stores(tmp_path / "merged.jsonl",
                           tmp_path / "seq.jsonl") == []

    def test_sigkilled_local_worker_costs_a_lease_not_the_campaign(
            self, tmp_path):
        grid = _sleep_grid(6, duration_s=0.4)
        reports = []
        thread = threading.Thread(target=lambda: reports.append(
            run_campaign(grid, str(tmp_path / "par.jsonl"), workers=2)))
        thread.start()
        time.sleep(0.3)  # both workers are mid-cell by now
        os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
        thread.join(timeout=20.0)
        assert not thread.is_alive()
        assert reports[0].ok and reports[0].ran == 6
        assert reports[0].reclaimed >= 1
        run_campaign(grid, str(tmp_path / "seq.jsonl"), workers=0)
        assert diff_stores(tmp_path / "par.jsonl",
                           tmp_path / "seq.jsonl") == []

    @pytest.mark.parametrize("how", FRONT_ENDS)
    def test_quarantine_after_retry_budget(self, how, tmp_path):
        # duration_s must be numeric-coercible; a poisoned param makes
        # the cell fail deterministically on every attempt.
        grid = CampaignGrid(name="bad", cells=(
            CampaignCell(kind="sleep", seed=0,
                         params={"duration_s": "not-a-number"}),))
        report = _run(how, grid, tmp_path / "out.jsonl", retries=1)
        assert not report.ok and report.failed == 1
        assert "quarantined" in report.render()
        record = ResultStore(tmp_path / "out.jsonl").load()[grid.cells[0].key]
        assert record.status == "failed" and record.meta["attempts"] == 2
        assert "ValueError" in record.meta["error"]

    @pytest.mark.parametrize("how", ("coordinator", "local"))
    def test_lease_timeout_reclaims_hung_cell(self, how, tmp_path):
        # A hung cell with a tight lease beside a quick one: the lease
        # expires, the cell retries, exhausts its budget and is
        # quarantined; its child is terminated and joined (no zombie,
        # no worker left behind).
        grid = CampaignGrid(name="slow", cells=(
            *_sleep_grid(1, duration_s=30.0).cells,
            CampaignCell(kind="sleep", seed=9, params={"duration_s": 0.01})))
        t0 = time.monotonic()
        report = _run(how, grid, tmp_path / "out.jsonl", timeout_s=0.3,
                      retries=1)
        assert time.monotonic() - t0 < 5.0
        assert report.failed == 1 and report.ran == 1
        assert report.reclaimed >= 1
        failed = ResultStore(tmp_path / "out.jsonl").load()[grid.cells[0].key]
        assert "lease" in failed.meta["error"]
        assert multiprocessing.active_children() == []

    def test_exception_in_run_reaps_the_fleet(self, tmp_path):
        # Regression: spawned workers are not daemons, so a run() that
        # raised (here: echo, on the wall-limit line — the first one a
        # campaign of hung cells prints) used to leave them running.
        def echo(line: str) -> None:
            raise RuntimeError(line)

        coordinator = CampaignCoordinator(
            _sleep_grid(2, duration_s=30.0),
            ResultStore(tmp_path / "out.jsonl"), spawn=2, heartbeat_s=0.1,
            wall_limit_s=0.3, echo=echo)
        with pytest.raises(RuntimeError, match="wall limit"):
            coordinator.run()
        assert multiprocessing.active_children() == []

    def test_malformed_messages_get_an_error_reply(self, tmp_path):
        # Regression: a non-object line or a result with junk fields
        # used to kill the handler thread (and, for a non-dict payload,
        # would have been stored as an ok record).  The connection and
        # the lease must survive.
        grid = _sleep_grid(1, duration_s=0.0)
        store = ResultStore(tmp_path / "out.jsonl")
        coordinator = CampaignCoordinator(grid, store, heartbeat_s=0.2)
        thread, reports = _serve(coordinator)
        with socket.create_connection(("127.0.0.1", coordinator.port),
                                      timeout=5.0) as sock:
            wire = sock.makefile("rwb")

            def rpc(message) -> dict:
                wire.write(json.dumps(message).encode() + b"\n")
                wire.flush()
                return json.loads(wire.readline())

            assert rpc([])["op"] == "error"
            assert rpc(5)["op"] == "error"
            assert rpc({"op": "hello", "worker": "raw"})["op"] == "welcome"
            cell = rpc({"op": "lease", "worker": "raw"})
            result = {"op": "result", "worker": "raw", "key": cell["key"],
                      "status": "ok", "payload": {"slept_s": 0.0}}
            assert rpc({**result, "wall_s": "fast"})["op"] == "error"
            assert rpc({**result, "attempt": []})["op"] == "error"
            assert rpc({**result, "payload": [1]})["op"] == "error"
            assert rpc(result) == {"op": "ack", "accepted": True}
            assert rpc({"op": "lease", "worker": "raw"})["op"] == "shutdown"
        thread.join(timeout=10.0)
        assert not thread.is_alive() and reports[0].ok
        assert store.load()[cell["key"]].result == {"slept_s": 0.0}


class TestWorkStealing:
    def test_straggler_cell_is_stolen_and_first_result_wins(self, tmp_path):
        # 1 long cell + several short ones on 2 workers: once the queue
        # drains, the idle worker must steal the straggler's cell.
        cells = [CampaignCell(kind="sleep", seed=0,
                              params={"duration_s": 1.2})]
        cells += [CampaignCell(kind="sleep", seed=i,
                               params={"duration_s": 0.05})
                  for i in range(1, 4)]
        grid = CampaignGrid(name="steal", cells=tuple(cells))
        store = ResultStore(tmp_path / "out.jsonl")
        coordinator = CampaignCoordinator(
            grid, store, spawn=2, heartbeat_s=0.1, steal_after_s=0.3)
        report = coordinator.run()
        assert report.ok and report.ran == 4
        assert coordinator.summary()["leases"]["stolen"] >= 1
        assert report.stolen >= 1
        # first result won; the duplicate was dropped, not double-stored
        assert len(store.load()) == 4
