"""Tests for campaign cells, grids, content-hash keys, and TOML loading."""

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignGrid,
    canonical_json,
    cell_key,
    grid_from_toml,
)


class TestCampaignCell:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            CampaignCell(kind="frobnicate", seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            CampaignCell(kind="sleep", seed=-1)

    def test_spec_roundtrip(self):
        cell = CampaignCell(kind="scenario", seed=3,
                            params={"n_nodes": 6, "n_maps": 6,
                                    "n_reducers": 2},
                            faults="flaky-network", group="g")
        again = CampaignCell.from_spec(cell.spec())
        assert again == cell
        assert again.key == cell.key

    def test_label_mentions_group_seed_faults(self):
        cell = CampaignCell(kind="study", seed=7, group="churn",
                            params={"study": "churn", "variant": "churn"},
                            faults="split-brain")
        label = cell.label()
        assert "churn" in label and "seed=7" in label
        assert "split-brain" in label

    @pytest.mark.parametrize("kind,faults", [
        ("sleep", "flaky-network"), ("sleep", "no-such-plan")])
    def test_faults_on_a_kind_that_ignores_them_rejected(self, kind, faults):
        # A sleep cell builds no deployment to arm a plan on; there it
        # would change the key and nothing else.
        with pytest.raises(ValueError,
                           match=f"a '{kind}' cell does not arm a chaos plan"):
            CampaignCell(kind=kind, seed=1, faults=faults)
        with pytest.raises(ValueError, match="does not arm"):
            CampaignCell.from_spec({"kind": kind, "seed": 1,
                                    "faults": faults})

    def test_deployment_kinds_take_faults(self):
        for kind in ("scenario", "study"):
            cell = CampaignCell(kind=kind, seed=1, faults="flaky-network")
            assert cell.spec()["faults"] == "flaky-network"


class TestCellKey:
    def test_param_order_irrelevant(self):
        a = CampaignCell(kind="sleep", seed=1,
                         params={"a": 1, "duration_s": 0.1})
        b = CampaignCell(kind="sleep", seed=1,
                         params={"duration_s": 0.1, "a": 1})
        assert a.key == b.key

    def test_group_does_not_change_identity(self):
        # The group is an aggregation label, not part of what ran.
        a = CampaignCell(kind="sleep", seed=1, group="x")
        b = CampaignCell(kind="sleep", seed=1, group="y")
        assert a.key == b.key

    def test_seed_params_faults_do_change_identity(self):
        base = CampaignCell(kind="sleep", seed=1)
        assert base.key != CampaignCell(kind="sleep", seed=2).key
        assert base.key != CampaignCell(kind="sleep", seed=1,
                                        params={"duration_s": 9}).key
        cell = CampaignCell(kind="scenario", seed=1, params={"n_nodes": 4})
        assert cell.key != CampaignCell(kind="scenario", seed=1,
                                        params={"n_nodes": 4},
                                        faults="kitchen-sink").key

    def test_stable_across_processes(self):
        # A fixed spec must hash identically forever (the resume contract).
        cell = CampaignCell(kind="scenario", seed=1,
                            params={"n_nodes": 6, "n_maps": 6,
                                    "n_reducers": 2, "mr_clients": True,
                                    "input_size": 60e6})
        assert cell.key == "0c78ced8e5206001"

    def test_accepts_raw_spec_dict(self):
        cell = CampaignCell(kind="sleep", seed=4)
        assert cell_key(cell.spec()) == cell.key


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestCampaignGrid:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no cells"):
            CampaignGrid(name="empty", cells=())

    def test_duplicate_cells_rejected(self):
        cell = CampaignCell(kind="sleep", seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            CampaignGrid(name="dup", cells=(cell, cell))

    def test_len_and_iter(self):
        cells = tuple(CampaignCell(kind="sleep", seed=s) for s in range(3))
        grid = CampaignGrid(name="g", cells=cells)
        assert len(grid) == 3
        assert list(grid) == list(cells)


class TestTomlGrid:
    def test_load_and_fan_out(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "custom"\n'
            'description = "two kinds"\n'
            '[[cell]]\n'
            'kind = "sleep"\n'
            'seeds = [1, 2, 3]\n'
            'group = "naps"\n'
            'params = { duration_s = 0.01 }\n'
            '[[cell]]\n'
            'kind = "study"\n'
            'seed = 9\n'
            'params = { study = "churn", variant = "churn" }\n'
            'faults = "flaky-network"\n')
        grid = grid_from_toml(path)
        assert grid.name == "custom"
        assert len(grid) == 4
        assert [c.seed for c in grid] == [1, 2, 3, 9]
        assert grid.cells[0].params["duration_s"] == 0.01
        assert grid.cells[0].group == "naps"
        assert grid.cells[3].faults == "flaky-network"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.toml"
        path.write_text('name = "nothing"\n')
        with pytest.raises(ValueError, match="no .*cell"):
            grid_from_toml(path)
