"""Self-check of the benchmark: ``python -m pytest bench -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Runs every
workload once at ``--quick`` size, plain and traced, and checks the
harness rather than the program: names match ``BENCHMARK.json``, seeds
change the inputs, the traced layer buckets account for the traced
wall-clock time, a dead server yields failed operations instead of a
traceback, and :mod:`compare` reaches the right verdicts.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIM_WORKLOADS = [name for name in workloads.WORKLOADS if name.startswith("sim_")]
TIME_BUCKETS = (
    "sim.kernel_s", "sim.glue_s", "sim.trace_record_s", "net.maxmin_s",
    "net.alloc_s", "boinc.client_s", "boinc.rpc_s", "boinc.transfer_s",
    "boinc.daemons_s", "boinc.sched_handle_s", "core.peerdl_s",
    "core.task_s", "obs.metric_s", "obs.export_s")


def run_bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """Every workload once, plain and traced, at smoke-test size."""
    out = tmp_path_factory.mktemp("bench") / "report.json"
    done = run_bench("--quick", "--reps", "1", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    report["stdout"] = done.stdout
    return report


def test_every_workload_runs_clean(quick_report: dict) -> None:
    assert [e["workload"] for e in quick_report["workloads"]] == [
        w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    for entry in quick_report["workloads"]:
        assert entry["attempted"] >= 1
        assert entry["failed"] == 0, (entry["workload"], entry["errors"])


def test_names_match_the_contract(quick_report: dict) -> None:
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert "setup_s" in [m["name"] for m in CONTRACT["end_to_end"]]
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    produced: set[str] = set()
    for entry in quick_report["workloads"]:
        assert set(entry["end_to_end"]) == {
            m["name"] for m in CONTRACT["end_to_end"]}
        assert set(entry["per_layer"]) <= per_layer, (
            set(entry["per_layer"]) - per_layer)
        produced |= set(entry["per_layer"])
    assert produced == per_layer, per_layer - produced
    # The last line is the contract's object for the last workload.
    last = json.loads(quick_report["stdout"].strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == per_layer


def test_design_predictions_are_reported(quick_report: dict) -> None:
    for entry in quick_report["workloads"]:
        assert entry["per_layer"]["trace.overhead_ratio"] > 0
        if entry["workload"] in SIM_WORKLOADS:
            assert 0.0 <= entry["per_layer"]["net.share"] <= 1.0


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_traced_self_times_cover_the_traced_wall(quick_report: dict,
                                                 name: str) -> None:
    entry = next(e for e in quick_report["workloads"]
                 if e["workload"] == name)
    traced = entry["traced_rep"]
    covered = sum(traced["layers"].get(bucket, 0.0)
                  for bucket in TIME_BUCKETS)
    # Layer seconds are raw readings, so they add up to the raw wall time.
    assert covered == pytest.approx(traced["raw"]["wall_s"], rel=0.10)


def test_seed_changes_the_inputs(quick_report: dict,
                                 tmp_path: pathlib.Path) -> None:
    out = tmp_path / "seed2.json"
    done = run_bench("--quick", "--reps", "1", "--seed", "2", "--workload",
                     "sim_server_hub", "--trace", "0", "--out", str(out))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and set(line["metrics"]) == {
        m["name"] for m in CONTRACT["end_to_end"]}
    seed1 = next(e for e in quick_report["workloads"]
                 if e["workload"] == "sim_server_hub")
    seed2 = json.loads(out.read_text(encoding="utf-8"))["workloads"][0]
    assert (seed1["exact"]["sim.trace_sha256"]
            != seed2["exact"]["sim.trace_sha256"])


def test_missing_program_is_an_error_not_a_result(
        tmp_path: pathlib.Path) -> None:
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "sim_server_hub", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


class _DyingGateway(workloads.Gateway):
    """A server that is killed 50 ms into the timed region."""

    def cpu_s(self) -> float:  # first called right before the region starts
        if self.process.poll() is None:
            threading.Timer(0.05, self.process.kill).start()
        return super().cpu_s()


def test_killed_server_yields_failed_operations(
        monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(workloads, "Gateway", _DyingGateway)
    probe = measure.SpeedProbe()  # never started: slowdown reads 1.0
    rpc = workloads.run_gateway_rpc(
        workloads.RpcShape(hosts=10, polls=50_000), 1, None, probe)
    assert 0 < rpc["failed"] <= rpc["attempted"]
    job = workloads.run_gateway_job(
        workloads.WORKLOADS["gateway_job"].shape, 1, None, probe)
    assert 0 < job["failed"] <= job["attempted"] and job["errors"]


def _report(wall: list[float], events: int = 100) -> dict:
    import run

    stats = {metric: run.spread(wall) for metric in run.END_TO_END}
    return {"environment": {"git_sha": "0" * 40}, "seed": 1,
            "workloads": [{"workload": "w", "end_to_end": stats,
                           "failed": 0, "exact": {"sim.events": events}}]}


def test_compare_verdicts() -> None:
    steady = [1.00, 1.01, 1.02, 1.01, 1.00]
    lines, worse = compare.compare(_report(steady), _report(steady),
                                   CONTRACT)
    assert not worse and all(line.endswith("ok") for line in lines[2:])
    slow = [v * 1.5 for v in steady]
    lines, worse = compare.compare(_report(steady), _report(slow, events=99),
                                   CONTRACT)
    assert worse and any(line.endswith("worse") for line in lines)
    assert any("sim.events: 100 -> 99" in line for line in lines)
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
    lines, worse = compare.compare(_report(steady), _report(noisy), CONTRACT)
    assert not worse and any(line.endswith("unresolved") for line in lines)
