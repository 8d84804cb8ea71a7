"""Tests for ``run_campaign``: determinism, resume, retries, metrics.

What ``run_campaign`` shares with a bare coordinator (resume skip,
quarantine, lease timeout, a SIGKILLed worker) is parametrized over
the front ends in ``test_coordinator.py``.
"""

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignCoordinator,
    CampaignGrid,
    CellRecord,
    ResultStore,
    canonical_json,
    execute_cell,
    run_campaign,
)
from repro.obs import MetricsRegistry


def small_grid(n_seeds: int = 3) -> CampaignGrid:
    cells = tuple(
        CampaignCell(kind="scenario", seed=seed,
                     params={"n_nodes": 6, "n_maps": 6, "n_reducers": 2,
                             "mr_clients": True, "input_size": 60e6},
                     group="small")
        for seed in range(1, n_seeds + 1))
    return CampaignGrid(name="small", cells=cells)


def sleep_grid(*durations: float) -> CampaignGrid:
    return CampaignGrid(name="naps", cells=tuple(
        CampaignCell(kind="sleep", seed=i, params={"duration_s": d})
        for i, d in enumerate(durations)))


def payloads(out) -> dict[str, str]:
    return {k: canonical_json(r.result)
            for k, r in ResultStore(out).load().items()}


class TestDeterminism:
    def test_pooled_payloads_byte_identical_to_sequential(self, tmp_path):
        grid = small_grid()
        assert run_campaign(grid, str(tmp_path / "seq.jsonl"), workers=0).ok
        assert run_campaign(grid, str(tmp_path / "par.jsonl"), workers=2).ok
        assert payloads(tmp_path / "seq.jsonl") == payloads(
            tmp_path / "par.jsonl")

    def test_payload_matches_direct_execute(self, tmp_path):
        grid = small_grid(n_seeds=1)
        run_campaign(grid, str(tmp_path / "s.jsonl"), workers=2)
        direct = execute_cell(grid.cells[0].spec())
        assert payloads(tmp_path / "s.jsonl") == {
            grid.cells[0].key: canonical_json(direct)}

    def test_payload_is_deterministic_fields(self, tmp_path):
        # Nondeterministic bookkeeping lives in meta, not the payload.
        grid = small_grid(n_seeds=1)
        run_campaign(grid, str(tmp_path / "s.jsonl"), workers=1)
        record = ResultStore(tmp_path / "s.jsonl").load()[grid.cells[0].key]
        assert {"wall_s", "attempts", "worker"} <= set(record.meta)
        assert "wall_s" not in record.result
        assert record.result["total"] > 0


class TestResume:
    def test_partial_store_runs_only_remainder(self, tmp_path):
        grid = small_grid()
        out = str(tmp_path / "s.jsonl")
        run_campaign(CampaignGrid(name="half", cells=grid.cells[:1]), out)
        resumed = run_campaign(grid, out, resume=True)
        assert resumed.skipped == 1
        assert resumed.ran == len(grid) - 1
        assert set(payloads(out)) == {c.key for c in grid}

    def test_without_resume_store_is_restarted(self, tmp_path):
        grid = small_grid(n_seeds=1)
        out = str(tmp_path / "s.jsonl")
        run_campaign(grid, out)
        again = run_campaign(grid, out)
        assert again.ran == 1 and again.skipped == 0
        assert len(ResultStore(out).load()) == 1

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        grid = sleep_grid(0.01)
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(CellRecord(key=grid.cells[0].key,
                                spec=grid.cells[0].spec(), status="failed",
                                result=None, meta={"error": "earlier crash"}))
        resumed = run_campaign(grid, str(store.path), workers=0, resume=True)
        assert resumed.ran == 1 and resumed.skipped == 0
        assert store.load()[grid.cells[0].key].ok


class TestLocalRuns:
    def test_retries_counted(self, tmp_path):
        grid = sleep_grid(30.0)
        metrics = MetricsRegistry()
        report = run_campaign(grid, str(tmp_path / "s.jsonl"), workers=1,
                              timeout_s=0.2, retries=2, metrics=metrics)
        assert report.failed == 1
        assert metrics.counter("campaign.cells.retries").value == 2
        failed_meta = ResultStore(tmp_path / "s.jsonl").load()[
            grid.cells[0].key].meta
        assert failed_meta["attempts"] == 3

    def test_local_runs_never_duplicate_a_cell(self, tmp_path):
        # A distributed coordinator steals a sole lease older than
        # 4 x heartbeat_s = 2 s onto an idle worker; on one host the
        # duplicate can never win, so run_campaign keeps stealing off.
        grid = sleep_grid(2.4, 0.01)
        report = run_campaign(grid, str(tmp_path / "s.jsonl"), workers=2)
        assert report.ok and report.ran == 2 and report.stolen == 0
        distributed = CampaignCoordinator(
            grid, ResultStore(tmp_path / "d.jsonl"))
        assert distributed.table.steal_after_s == 2.0


class TestProgressAndMetrics:
    def test_metrics_registry_counts(self, tmp_path):
        grid = small_grid()
        metrics = MetricsRegistry()
        run_campaign(grid, str(tmp_path / "s.jsonl"), workers=2,
                     metrics=metrics)
        assert metrics.counter("campaign.cells.completed").value == len(grid)
        assert metrics.counter("campaign.cells.quarantined").value == 0
        assert metrics.counter("campaign.cells.skipped").value == 0
        assert metrics.gauge("campaign.cells.leased").value == 0
        hist = metrics.histogram("campaign.cell_wall_s")
        assert hist.count == len(grid)

    def test_echo_reports_every_cell(self, tmp_path):
        grid = small_grid()
        lines: list[str] = []
        run_campaign(grid, str(tmp_path / "s.jsonl"), workers=2,
                     echo=lines.append)
        assert len([ln for ln in lines if "] ok" in ln]) == len(grid)
        assert any(f"/{len(grid)}]" in ln for ln in lines)

    def test_invalid_construction(self, tmp_path):
        grid = small_grid(n_seeds=1)
        with pytest.raises(ValueError):
            run_campaign(grid, str(tmp_path / "s.jsonl"), workers=-1)
        with pytest.raises(ValueError):
            run_campaign(grid, str(tmp_path / "s.jsonl"), retries=-1)
