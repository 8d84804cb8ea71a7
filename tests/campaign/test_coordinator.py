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
import subprocess
import sys
import threading
import time

import pytest

import repro
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
from repro.campaign import coordinator as coordinator_module
from repro.campaign import worker as worker_module
from repro.campaign.coordinator import CONTROL_SCHEMAS
from repro.wire import compile_checks, loads, write_record


def _result_line(tail: bytes = b"",
                 payload: bytes = b'{"slept_s":0.0}') -> bytes:
    """An ``ok`` result line from worker ``raw`` for cell ``<key>``."""
    return (b'{"op":"result","worker":"raw","key":"<key>","status":"ok",'
            b'"payload":%s%s}' % (payload, tail))


HELLO = b'{"op":"hello","worker":"raw"}'
CHECKS = compile_checks(CONTROL_SCHEMAS)

#: Lines the coordinator answers with one ``error`` reply each, on a
#: connection that goes on serving; ``<key>`` stands for a leased cell's
#: key.  CI's ``control-plane-chaos`` job sends them to a live coordinator.
HOSTILE_LINES = {
    # Not JSON, not an object, or no known op.
    "not-utf8": b"\xff\xfe",
    "nested-past-recursion-limit": b"[" * 100000 + b"]" * 100000,
    "not-an-object": b"[]",
    "a-number": b"5",
    "no-op": b'{"worker":"raw"}',
    "unknown-op": b'{"op":"steal","worker":"raw"}',
    "op-not-a-string": b'{"op":["hello"],"worker":"raw"}',
    # A field the schema refuses.
    "wall-s-a-string": _result_line(b',"wall_s":"fast"'),
    "wall-s-true": _result_line(b',"wall_s":true'),
    "attempt-a-list": _result_line(b',"attempt":[]'),
    "attempt-1e300": _result_line(b',"attempt":1e300'),
    "payload-a-list": _result_line(payload=b"[1]"),
    "unknown-field": _result_line(b',"zz":1'),
    "heartbeat-with-keys": b'{"op":"heartbeat","worker":"raw",'
                           b'"keys":["<key>"]}',
    # Tokens Python's json takes and RFC 8259 does not.
    "attempt-1e400": _result_line(b',"attempt":1e400'),
    "payload-nan": _result_line(payload=b'{"slept_s":NaN}'),
    "wall-s-infinity": _result_line(b',"wall_s":Infinity'),
    # Schema-valid values the coordinator must not take.
    "wall-s-past-double": _result_line(b',"wall_s":1' + b"0" * 400),
    "wall-s-negative": _result_line(b',"wall_s":-1'),
    "ok-without-payload": b'{"op":"result","worker":"raw","key":"<key>",'
                          b'"status":"ok"}',
    "unknown-key": b'{"op":"result","worker":"raw","key":"nope",'
                   b'"status":"ok","payload":{}}',
    # A worker never leased the cell: neither outcome may touch it.
    "never-leased-ok": b'{"op":"result","worker":"stranger","key":"<key>",'
                       b'"status":"ok","payload":{"slept_s":9.0}}',
    "never-leased-error": b'{"op":"result","worker":"stranger",'
                          b'"key":"<key>","status":"error","error":"boom"}',
}


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
        record = coordinator.run().record(seed=1)
        write_record(str(tmp_path / "record.json"), record)  # the CI file
        assert record["ok"] and record["outcome"]["completed"] == 2
        assert record["outcome"]["leases"]["granted"] >= 2
        assert record["outcome"]["quarantined"] == []

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
        payloads equal a sequential run.

        Every assertion reads the coordinator's own counters and store,
        none a wall-clock margin: a victim is chosen while it holds a
        lease and is failed as it is killed, so each kill counts and the
        first one (the queue still full) reclaims its cell."""
        grid = _sleep_grid(9, duration_s=0.4, name="chaos")
        store = ResultStore(tmp_path / "dist.jsonl")
        coordinator = CampaignCoordinator(
            grid, store, spawn=3, heartbeat_s=0.2, retries=3,
            chaos_kills=2, chaos_interval_s=0.4,
            shard_dir=tmp_path / "shards")
        report = coordinator.run()
        assert report.failed == 0 and report.ran == 9
        assert report.chaos_kills == 2
        assert report.leases.workers_failed >= report.chaos_kills
        assert report.leases.reclaimed >= 1
        run_campaign(grid, str(tmp_path / "seq.jsonl"), workers=0)
        # coordinator's authoritative store matches sequential ...
        assert diff_stores(tmp_path / "dist.jsonl",
                           tmp_path / "seq.jsonl") == []
        # ... and so do the merged per-worker shards: every worker whose
        # result was stored wrote its shard before it sent the result
        writers = {r.meta["worker"] for r in store.load().values()}
        shards = sorted((tmp_path / "shards").glob("*.jsonl"))
        assert len(shards) >= len(writers) >= 2
        merge_stores(tmp_path / "merged.jsonl", shards)
        assert diff_stores(tmp_path / "merged.jsonl",
                           tmp_path / "seq.jsonl") == []

    def test_a_chaos_kill_counts_when_its_result_was_in_flight(
            self, tmp_path, monkeypatch):
        # Regression: a victim's leases were reclaimed only once its
        # socket's EOF reached a handler thread, so a result it had sent
        # just before the kill drained the lease first and the kill went
        # uncounted (workers_failed 1 after two kills, seen under load).
        coordinator = CampaignCoordinator(
            _sleep_grid(1), ResultStore(tmp_path / "out.jsonl"),
            chaos_kills=1, chaos_interval_s=0.0)
        coordinator.begin()
        monkeypatch.setattr(coordinator, "_spawn_worker", lambda: "w1")
        victim = multiprocessing.get_context().Process(
            target=time.sleep, args=(60.0,))
        victim.start()
        coordinator._spawned["w0"] = victim
        coordinator.dispatch({"op": "hello", "worker": "w0"})
        cell = coordinator.dispatch({"op": "lease", "worker": "w0"})
        with coordinator._lock:
            coordinator._chaos_step(time.monotonic())
        assert not victim.is_alive()
        coordinator.dispatch({"op": "result", "worker": "w0",
                              "key": cell["key"], "status": "ok",
                              "payload": {"slept_s": 0.0}})
        coordinator.connection_lost("w0")
        report = coordinator.report()
        assert report.chaos_kills == report.leases.workers_failed == 1
        assert report.leases.reclaimed == 1
        assert report.ran == 1  # the late result still counts

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
        assert reports[0].leases.reclaimed >= 1
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
        report = _run(how, grid, tmp_path / "out.jsonl")
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
        report = _run(how, grid, tmp_path / "out.jsonl", timeout_s=0.3)
        assert time.monotonic() - t0 < 5.0
        assert report.failed == 1 and report.ran == 1
        assert report.leases.reclaimed >= 1
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
        # Regression: each line used to kill the handler thread, or be
        # stored (a 301-digit attempt count, a bare NaN, a wall time
        # past the campaign's).  The connection and the lease survive,
        # and the store holds only what the shared decoder takes back.
        grid = _sleep_grid(1, duration_s=0.0)
        store = ResultStore(tmp_path / "out.jsonl")
        coordinator = CampaignCoordinator(grid, store, heartbeat_s=1.0)
        thread, reports = _serve(coordinator)
        with socket.create_connection(("127.0.0.1", coordinator.port),
                                      timeout=5.0) as sock:
            wire = sock.makefile("rwb")

            def send(line: bytes) -> dict:
                wire.write(line + b"\n")
                wire.flush()
                return loads(wire.readline())

            assert send(HELLO)["op"] == "welcome"
            key = send(b'{"op":"lease","worker":"raw"}')["key"].encode()
            for name, line in HOSTILE_LINES.items():
                reply = send(line.replace(b"<key>", key))
                assert reply["op"] == "error", (name, reply)
                assert CHECKS["ControlError"](reply, name) == [], reply
            assert send(HELLO)["op"] == "welcome"
            assert send(b'{"op":"heartbeat","worker":"raw"}') == {
                "op": "ack", "revoked": []}
            assert send(_result_line().replace(b"<key>", key)) == {
                "op": "ack", "accepted": True}
            assert send(b'{"op":"lease","worker":"raw"}')["op"] == "shutdown"
        thread.join(timeout=10.0)
        assert not thread.is_alive() and reports[0].ok
        lines = store.path.read_bytes().splitlines()
        assert [loads(line)["result"] for line in lines] == [{"slept_s": 0.0}]

    def test_a_late_former_holder_completes_a_cell_a_stranger_cannot(
            self, tmp_path):
        # Regression: any worker's result reached the lease table, so a
        # stranger's "error" could cost a leased cell an attempt.
        store = ResultStore(tmp_path / "out.jsonl")
        coordinator = CampaignCoordinator(_sleep_grid(1, duration_s=0.0),
                                          store, heartbeat_s=1.0)
        coordinator.begin()
        table = coordinator.table

        def result(worker: str, **fields) -> dict:
            return coordinator.dispatch({"op": "result", "worker": worker,
                                         "key": key, **fields})

        def cell() -> tuple:
            state = table.cells[key]
            return state.status, state.attempts, sorted(state.leases)

        coordinator.dispatch({"op": "hello", "worker": "a"})
        key = coordinator.dispatch({"op": "lease", "worker": "a"})["key"]
        for fields in ({"status": "error", "error": "boom"},
                       {"status": "ok", "payload": {"slept_s": 9.0}}):
            leased = cell()
            assert result("stranger", **fields)["op"] == "error"
            assert cell() == leased == ("leased", 0, ["a"])
        coordinator.connection_lost("a")  # its lease is reclaimed
        assert cell() == ("pending", 1, [])
        assert result("stranger", status="ok",
                      payload={"slept_s": 9.0})["op"] == "error"
        assert cell() == ("pending", 1, [])
        assert result("a", status="ok", payload={"slept_s": 0.0}) == {
            "op": "ack", "accepted": True}
        assert table.done and "stranger" not in table.workers
        assert [r.result for r in store.records()] == [{"slept_s": 0.0}]

    def test_an_over_long_line_gets_one_error_and_a_hang_up(
            self, tmp_path, monkeypatch):
        # Regression: a line with no end was buffered without bound.  At
        # the limit a line is served; one byte past it is answered once,
        # the connection closes and its lease goes back to the table.
        monkeypatch.setattr(coordinator_module, "MAX_MESSAGE_BYTES", 256)
        coordinator = CampaignCoordinator(
            _sleep_grid(1, duration_s=0.0),
            ResultStore(tmp_path / "out.jsonl"), heartbeat_s=1.0)
        thread, reports = _serve(coordinator)
        lease = b'{"op":"lease","worker":"raw"}'
        with socket.create_connection(("127.0.0.1", coordinator.port),
                                      timeout=5.0) as sock:
            wire = sock.makefile("rwb")
            wire.write(HELLO.ljust(255) + b"\n" + lease + b"\n")
            wire.write(lease.ljust(256) + b"\n")
            wire.flush()
            assert loads(wire.readline())["op"] == "welcome"
            key = loads(wire.readline())["key"]
            assert loads(wire.readline()) == {
                "op": "error", "error": "line over 256 bytes"}
            assert wire.readline() == b""
        with socket.create_connection(("127.0.0.1", coordinator.port),
                                      timeout=5.0) as sock:
            wire = sock.makefile("rwb")
            wire.write(HELLO + b"\n" + lease + b"\n")
            wire.flush()
            wire.readline()
            assert loads(wire.readline())["key"] == key
            wire.write(_result_line().replace(b"<key>", key.encode())
                       + b"\n" + lease + b"\n")
            wire.flush()
            assert loads(wire.readline())["accepted"]
            assert loads(wire.readline())["op"] == "shutdown"
        thread.join(timeout=10.0)
        assert not thread.is_alive() and reports[0].ok

    def test_payloads_nested_near_the_recursion_limit_are_never_lost(
            self, tmp_path):
        # Regression: a payload that decoded a few levels short of the
        # recursion limit failed to encode on the store's deeper stack,
        # after the table had marked its cell done: no reply, no record.
        # Deepest first: refusals until one is taken, and that one stored.
        coordinator = CampaignCoordinator(
            _sleep_grid(1), ResultStore(tmp_path / "out.jsonl"),
            heartbeat_s=1.0)
        thread, _ = _serve(coordinator)
        limit = sys.getrecursionlimit()
        with socket.create_connection(("127.0.0.1", coordinator.port),
                                      timeout=5.0) as sock:
            wire = sock.makefile("rwb")
            wire.write(HELLO + b"\n" + b'{"op":"lease","worker":"raw"}\n')
            wire.flush()
            wire.readline()
            key = loads(wire.readline())["key"].encode()
            taken = []
            for depth in range(limit + 1, limit - 61, -1):
                wire.write(_result_line(payload=b'{"a":%s}' % (
                    b"[" * depth + b"]" * depth)).replace(b"<key>", key)
                    + b"\n")
                wire.flush()
                reply = loads(wire.readline())
                if reply["op"] == "ack":
                    taken.append((depth, reply["accepted"]))
                else:
                    assert not taken and reply["op"] == "error", depth
        coordinator.wall_limit_s = 0.0
        thread.join(timeout=10.0)
        assert taken and taken[0][1] and not any(a for _, a in taken[1:])
        line, = (tmp_path / "out.jsonl").read_bytes().splitlines()
        assert line.count(b"[") == taken[0][0]


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
        assert report.leases.stolen >= 1
        # first result won; the duplicate was dropped, not double-stored
        assert len(store.load()) == 4


#: Run in a fresh interpreter: what a ``repro campaign work`` process has
#: loaded after :func:`~repro.campaign.cells.preload`, then the modules
#: three cells (a Table I study cell, a scenario cell, a study cell under
#: a chaos plan) import on top of that.
_PRELOAD_PROBE = """
import json, sys
import repro.cli, repro.campaign
from repro.campaign import execute_cell
from repro.campaign.cells import preload
preload()
before = set(sys.modules)
row = {"study": "table1", "variant": "boinc_10n_10m_2r"}
execute_cell({"kind": "study", "seed": 1, "params": row})
execute_cell({"kind": "scenario", "seed": 2,
              "params": {"n_nodes": 6, "n_maps": 4, "n_reducers": 2}})
execute_cell({"kind": "study", "seed": 1, "params": row,
              "faults": "flaky-network"})
print(json.dumps(sorted(set(sys.modules) - before)))
"""


class TestWarmWorker:
    def test_preload_leaves_a_cell_nothing_to_import(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _PRELOAD_PROBE], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert json.loads(proc.stdout) == []

    def test_each_worker_preloads_once_not_once_per_cell(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(worker_module, "preload",
                            lambda: calls.append(threading.get_ident()))
        coordinator = CampaignCoordinator(
            _sleep_grid(6), ResultStore(tmp_path / "out.jsonl"),
            spawn=0, heartbeat_s=0.2)
        thread, reports = _serve(coordinator)
        completed = []
        workers = [threading.Thread(target=lambda i=i: completed.append(
            CampaignWorker("127.0.0.1", coordinator.port,
                           worker_id=f"warm{i}").run())) for i in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers + [thread]:
            worker.join(timeout=20.0)
        assert reports[0].ok and sum(completed) == 6
        assert len(calls) == 2 and len(set(calls)) == 2
